package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/monitor"
	"repro/internal/topo"
)

// epoch is bin 0 of every generated timeline.
var epoch = time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)

// mix is the splitmix64 finalizer: a cheap, well-spread 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitNoise is a zero-mean, unit-variance, bell-shaped draw that is a
// pure function of (seed, series, bin): the sum of four uniform 16-bit
// fields of one hash (Irwin–Hall, variance 4/12), rescaled. Random
// access is what lets the harness regenerate any stored measurement
// when it checks the store after a run.
func unitNoise(seed uint64, series, bin int) float64 {
	h := mix(seed ^ mix(uint64(series)<<32|uint64(uint32(bin))))
	sum := float64(h&0xffff) + float64(h>>16&0xffff) + float64(h>>32&0xffff) + float64(h>>48)
	return (sum/65536 - 2) * math.Sqrt(3)
}

// fleetService is one service of a generated fleet: its servers, and
// the subset a change is deployed on (the rest are the dark-launch
// control group).
type fleetService struct {
	name    string
	servers []string
	treated []string
}

// fleetSpec sizes a fleet.
type fleetSpec struct {
	services          int
	serversPerService int
	treatedPerService int
	background        int // servers in no service: ingested, never assessed
	metrics           []string
}

// fleet is a generated set of server KPI series published one bin at a
// time. keys is the publish order of one bin; the sentinel is its last
// key, so once the sentinel's bin is readable every other measurement
// of that bin is too (one connection, frames applied in order).
type fleet struct {
	seed     uint64
	keys     []topo.KPIKey
	service  []int  // series → index into svc, −1 for background
	treated  []bool // series belongs to a treated server
	svc      []fleetService
	sentinel topo.KPIKey
	// value is the measurement of one series at one bin.
	value func(series, bin int) float64
}

// newFleet lays out services, servers and keys. Services come first in
// publish order, background servers last.
func newFleet(seed int64, spec fleetSpec) *fleet {
	f := &fleet{seed: uint64(seed)}
	addServer := func(server string, svc int, treated bool) {
		for _, m := range spec.metrics {
			f.keys = append(f.keys, topo.KPIKey{Scope: topo.ScopeServer, Entity: server, Metric: m})
			f.service = append(f.service, svc)
			f.treated = append(f.treated, treated)
		}
	}
	for s := 0; s < spec.services; s++ {
		fs := fleetService{name: fmt.Sprintf("svc%03d.core", s)}
		for i := 0; i < spec.serversPerService; i++ {
			server := fmt.Sprintf("s%03d-%d", s, i)
			fs.servers = append(fs.servers, server)
			if i < spec.treatedPerService {
				fs.treated = append(fs.treated, server)
			}
			addServer(server, s, i < spec.treatedPerService)
		}
		f.svc = append(f.svc, fs)
	}
	for i := 0; i < spec.background; i++ {
		addServer(fmt.Sprintf("bg-%04d", i), -1, false)
	}
	f.sentinel = f.keys[len(f.keys)-1]
	return f
}

// binTime is the timestamp of a bin.
func binTime(bin int) time.Time { return epoch.Add(time.Duration(bin) * time.Minute) }

// fillBin appends one bin's measurements, in publish order, to dst.
func (f *fleet) fillBin(dst []monitor.Measurement, bin int) []monitor.Measurement {
	t := binTime(bin)
	for i, k := range f.keys {
		dst = append(dst, monitor.Measurement{Key: k, T: t, V: f.value(i, bin)})
	}
	return dst
}

const (
	// ladderBins × ladderSeries is the slice of a fleet's own input the
	// layer ladder replays: long enough for every series to seal a
	// chunk, narrow enough to replay many times.
	ladderBins   = 512 + 64
	ladderSeries = 400
)

// sampleBins regenerates bins [from, to) of the fleet's first
// ladderSeries series (services come first, so treated and control
// servers are in), one batch per bin.
func (f *fleet) sampleBins(from, to int) [][]monitor.Measurement {
	if from < 0 {
		from = 0
	}
	n := len(f.keys)
	if n > ladderSeries {
		n = ladderSeries
	}
	out := make([][]monitor.Measurement, 0, to-from)
	for bin := from; bin < to; bin++ {
		b := make([]monitor.Measurement, n)
		t := binTime(bin)
		for i := range b {
			b[i] = monitor.Measurement{Key: f.keys[i], T: t, V: f.value(i, bin)}
		}
		out = append(out, b)
	}
	return out
}

// rollout is the change schedule of rollout-stream: change k is
// deployed at bin first+stagger×k on service k mod services, so every
// service is changed again and again, services×stagger bins apart.
type rollout struct {
	first, stagger, services int
}

// changeBin is the bin change k is deployed at.
func (r rollout) changeBin(k int) int { return r.first + r.stagger*k }

// changeAt returns the index of the change deployed at bin, if any.
func (r rollout) changeAt(bin int) (int, bool) {
	d := bin - r.first
	if d < 0 || d%r.stagger != 0 {
		return 0, false
	}
	return d / r.stagger, true
}

// deployed counts the changes service svc has received up to and
// including bin.
func (r rollout) deployed(svc, bin int) int {
	d := bin - r.changeBin(svc)
	if d < 0 {
		return 0
	}
	return d/(r.stagger*r.services) + 1
}

// digest folds a window of values into 64 bits (FNV-1a over the raw
// float bits), for comparing what the store returns with what was
// generated.
func digest(h uint64, vals []float64) uint64 {
	if h == 0 {
		h = 0xcbf29ce484222325
	}
	for _, v := range vals {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 0x100000001b3
			b >>= 8
		}
	}
	return h
}
