package detect

import (
	"fmt"
	"sort"

	"repro/internal/baselines"
	"repro/internal/edivisive"
	"repro/internal/sst"
)

// Detector is the pluggable contract every change detector in the
// arena satisfies: a pointwise scorer (drivable by Gate, the
// persistence rule, and the sweep helpers) that also identifies itself
// for registry lookup and reporting. SST variants, the baselines and
// E-divisive all implement it; implementations that additionally
// satisfy sst.RangeScorer get the incremental sweep path for free.
type Detector interface {
	sst.Scorer
	// Name returns the registry identifier, e.g. "sst" or "cusum".
	Name() string
}

// Entry is one registered detector: its registry name and how to build
// its default configuration.
type Entry struct {
	// Name is the registry identifier, accepted by the -detector flag
	// of cmd/funnel.
	Name string
	// New builds a default-configured instance.
	New func() Detector
}

// registry is the static arena. Construction stays explicit — no init
// side effects — so the dependency direction is detect → scorers and a
// reader can see the full roster in one place.
var registry = []Entry{
	{"sst", func() Detector { return sst.NewSliding(sst.NewIKA(sst.Config{})) }}, // the deployed IKA-accelerated robust SST (§3.2.3)
	{"sst-classic", func() Detector { return sst.NewClassic(sst.Config{}) }},     // original SVD-based SST (§3.2.1)
	{"sst-robust", func() Detector { return sst.NewRobust(sst.Config{}) }},       // robustness-improved SST, exact decompositions (§3.2.2)
	{"cusum", func() Detector { return baselines.NewCUSUM() }},                   // MERCURY-style bootstrap CUSUM
	{"mrls", func() Detector { return baselines.NewMRLS() }},                     // PRISM-style multiscale robust local subspace
	{"wow", func() Detector { return baselines.NewWoW() }},                       // week-over-week differencing (Chen et al. 2013)
	{"edivisive", func() Detector { return edivisive.New() }},                    // E-divisive means with permutation significance (Hunter)
}

// Detectors returns the registered entries sorted by name.
func Detectors() []Entry {
	out := make([]Entry, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupDetector resolves a registry name. It returns a descriptive
// error listing the roster on an unknown name.
func LookupDetector(name string) (Entry, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0, len(registry))
	for _, e := range Detectors() {
		names = append(names, e.Name)
	}
	return Entry{}, fmt.Errorf("detect: unknown detector %q (registered: %v)", name, names)
}
