// Package changelog records software changes — software upgrades and
// configuration changes (§2.1) — as they are deployed, and provides the
// queries FUNNEL needs: changes by time range and by service, and the
// tserver list that seeds impact-set identification.
package changelog

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Type is the kind of software change.
type Type int

const (
	// Upgrade is a software upgrade deploying new features or bug
	// fixes; FUNNEL treats one upgrade as a whole (§2.1).
	Upgrade Type = iota
	// Config is a configuration change issued through the command-line
	// interface (OS, infrastructure software, service configuration,
	// deployment scale or data source).
	Config
)

// String names the change type.
func (t Type) String() string {
	switch t {
	case Upgrade:
		return "upgrade"
	case Config:
		return "config"
	default:
		return "unknown"
	}
}

// Change is one deployed software change.
type Change struct {
	// ID uniquely identifies the change in the log.
	ID string
	// Type distinguishes upgrades from configuration changes.
	Type Type
	// Service is the service the change was deployed on. The
	// operations team's practice is one concurrent change per service
	// (§3.1).
	Service string
	// Servers are the servers the change was deployed on (the
	// tservers). Under Dark Launching this is a strict subset of the
	// service's servers.
	Servers []string
	// At is the deployment time.
	At time.Time
	// Description is free-form operator text.
	Description string
}

// Log is an append-only record of software changes ordered by time.
// It is not safe for concurrent use; wrap with a mutex if needed.
type Log struct {
	changes []Change
	byID    map[string]int
}

// NewLog returns an empty change log.
func NewLog() *Log {
	return &Log{byID: make(map[string]int)}
}

// Append records a change. The ID must be unique and the service
// non-empty.
func (l *Log) Append(c Change) error {
	if c.ID == "" {
		return fmt.Errorf("changelog: empty change ID")
	}
	if c.Service == "" {
		return fmt.Errorf("changelog: change %s has no service", c.ID)
	}
	if _, dup := l.byID[c.ID]; dup {
		return fmt.Errorf("changelog: duplicate change ID %q", c.ID)
	}
	// Keep the log time-ordered under out-of-order appends.
	i := sort.Search(len(l.changes), func(i int) bool { return l.changes[i].At.After(c.At) })
	l.changes = append(l.changes, Change{})
	copy(l.changes[i+1:], l.changes[i:])
	l.changes[i] = c
	// Rebuild the displaced indices.
	for j := i; j < len(l.changes); j++ {
		l.byID[l.changes[j].ID] = j
	}
	return nil
}

// Len returns the number of recorded changes.
func (l *Log) Len() int { return len(l.changes) }

// Get looks a change up by ID.
func (l *Log) Get(id string) (Change, bool) {
	i, ok := l.byID[id]
	if !ok {
		return Change{}, false
	}
	return l.changes[i], true
}

// All returns the changes in time order. The slice is a copy.
func (l *Log) All() []Change {
	out := make([]Change, len(l.changes))
	copy(out, l.changes)
	return out
}

// InRange returns the changes with from ≤ At < to, in time order.
func (l *Log) InRange(from, to time.Time) []Change {
	lo := sort.Search(len(l.changes), func(i int) bool { return !l.changes[i].At.Before(from) })
	hi := sort.Search(len(l.changes), func(i int) bool { return !l.changes[i].At.Before(to) })
	out := make([]Change, hi-lo)
	copy(out, l.changes[lo:hi])
	return out
}

// ConcurrentWith returns changes of other services whose deployment
// time falls within window of c.At. The operations team avoids
// concurrent changes within a service; across services they can occur
// and FUNNEL flags affected-service results for manual inspection
// (§3.1).
func (l *Log) ConcurrentWith(c Change, window time.Duration) []Change {
	var out []Change
	for _, o := range l.InRange(c.At.Add(-window), c.At.Add(window)) {
		if o.ID != c.ID && o.Service != c.Service {
			out = append(out, o)
		}
	}
	return out
}

// Combine merges consecutive or concurrent changes *of one service*
// into a single change record — the straw-man treatment §2.1 sketches
// for interacting changes on the same servers ("which can be considered
// as one combined change"). The merged change carries the earliest
// deployment time, the union of servers, and Upgrade type if any member
// is an upgrade. It returns an error when the changes span multiple
// services or the slice is empty.
func Combine(id string, changes []Change) (Change, error) {
	if len(changes) == 0 {
		return Change{}, fmt.Errorf("changelog: nothing to combine")
	}
	merged := Change{
		ID:      id,
		Type:    Config,
		Service: changes[0].Service,
		At:      changes[0].At,
	}
	servers := map[string]bool{}
	descs := make([]string, 0, len(changes))
	for _, c := range changes {
		if c.Service != merged.Service {
			return Change{}, fmt.Errorf("changelog: cannot combine changes of %q and %q", merged.Service, c.Service)
		}
		if c.Type == Upgrade {
			merged.Type = Upgrade
		}
		if c.At.Before(merged.At) {
			merged.At = c.At
		}
		for _, s := range c.Servers {
			servers[s] = true
		}
		if c.Description != "" {
			descs = append(descs, c.Description)
		}
	}
	merged.Servers = make([]string, 0, len(servers))
	for s := range servers {
		merged.Servers = append(merged.Servers, s)
	}
	sort.Strings(merged.Servers)
	merged.Description = strings.Join(descs, "; ")
	return merged, nil
}
