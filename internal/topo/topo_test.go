package topo

import (
	"reflect"
	"testing"
	"testing/quick"
)

// paperTopology builds the example of Fig. 4: Service A with instances
// on n servers, related to B and D; B related to C.
func paperTopology(nServers int) *Topology {
	t := NewTopology()
	for i := 0; i < nServers; i++ {
		t.Deploy("svcA", server(i))
	}
	t.AddService("svcB")
	t.AddService("svcC")
	t.AddService("svcD")
	t.Relate("svcA", "svcB")
	t.Relate("svcA", "svcD")
	t.Relate("svcB", "svcC")
	return t
}

func server(i int) string {
	return "srv-" + string(rune('a'+i))
}

func TestDeployAndLookups(t *testing.T) {
	tp := NewTopology()
	id := tp.Deploy("search.web", "srv-1")
	if id != "search.web@srv-1" {
		t.Fatalf("instance ID = %q", id)
	}
	if got := tp.Deploy("search.web", "srv-1"); got != id {
		t.Fatal("redeploy should be idempotent")
	}
	tp.Deploy("search.web", "srv-0")
	if got := tp.InstancesOf("search.web"); len(got) != 2 || got[0] != "search.web@srv-0" {
		t.Fatalf("InstancesOf = %v", got)
	}
	if got := tp.ServersOf("search.web"); !reflect.DeepEqual(got, []string{"srv-0", "srv-1"}) {
		t.Fatalf("ServersOf = %v", got)
	}
	if in, ok := tp.instances[id]; !ok || in.Service != "search.web" || in.Server != "srv-1" {
		t.Fatalf("instance = %+v, %v", in, ok)
	}
}

// TestServicesServersSorted pins Servers' order. Its Services half went
// with the deleted Topology.Services; the name is kept.
func TestServicesServersSorted(t *testing.T) {
	tp := NewTopology()
	tp.Deploy("b", "s2")
	tp.Deploy("a", "s1")
	if got := tp.Servers(); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Fatalf("Servers = %v", got)
	}
}

func TestRelatedExplicitEdges(t *testing.T) {
	tp := paperTopology(3)
	if got := tp.Related("svcA"); !reflect.DeepEqual(got, []string{"svcB", "svcD"}) {
		t.Fatalf("Related(A) = %v", got)
	}
	if got := tp.Related("svcC"); !reflect.DeepEqual(got, []string{"svcB"}) {
		t.Fatalf("Related(C) = %v", got)
	}
}

func TestRelatedNamingSiblings(t *testing.T) {
	tp := NewTopology()
	tp.AddService("ads.click")
	tp.AddService("ads.antifraud")
	tp.AddService("ads.click.mobile") // grandchild: not a sibling of ads.click's siblings
	tp.AddService("search.web")
	got := tp.Related("ads.click")
	if !reflect.DeepEqual(got, []string{"ads.antifraud"}) {
		t.Fatalf("naming siblings = %v", got)
	}
	if got := tp.Related("search.web"); len(got) != 0 {
		t.Fatalf("unrelated service has relations: %v", got)
	}
}

func TestRelateSelfIgnored(t *testing.T) {
	tp := NewTopology()
	tp.Relate("x", "x")
	if got := tp.Related("x"); len(got) != 0 {
		t.Fatalf("self-relation leaked: %v", got)
	}
}

func TestAffectedServicesTransitive(t *testing.T) {
	tp := paperTopology(3)
	// Fig. 4: change on A affects B, D (direct) and C (through B).
	got := tp.AffectedServices("svcA")
	if !reflect.DeepEqual(got, []string{"svcB", "svcC", "svcD"}) {
		t.Fatalf("AffectedServices = %v", got)
	}
	// From C: B direct, A through B, D through A.
	got = tp.AffectedServices("svcC")
	if !reflect.DeepEqual(got, []string{"svcA", "svcB", "svcD"}) {
		t.Fatalf("AffectedServices(C) = %v", got)
	}
}

func TestIdentifyImpactSetDark(t *testing.T) {
	tp := paperTopology(4)
	set, err := tp.IdentifyImpactSet("svcA", []string{server(0), server(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !set.Dark() {
		t.Fatal("subset deployment should be dark launching")
	}
	if !reflect.DeepEqual(set.TServers, []string{"srv-a", "srv-b"}) {
		t.Fatalf("TServers = %v", set.TServers)
	}
	if !reflect.DeepEqual(set.CServers, []string{"srv-c", "srv-d"}) {
		t.Fatalf("CServers = %v", set.CServers)
	}
	if len(set.TInstances) != 2 || len(set.CInstances) != 2 {
		t.Fatalf("instances split wrong: %v / %v", set.TInstances, set.CInstances)
	}
	if !reflect.DeepEqual(set.AffectedServices, []string{"svcB", "svcC", "svcD"}) {
		t.Fatalf("AffectedServices = %v", set.AffectedServices)
	}
}

func TestIdentifyImpactSetFullLaunch(t *testing.T) {
	tp := paperTopology(2)
	set, err := tp.IdentifyImpactSet("svcA", []string{server(0), server(1)})
	if err != nil {
		t.Fatal(err)
	}
	if set.Dark() {
		t.Fatal("full deployment must not be dark")
	}
	if len(set.CServers) != 0 || len(set.CInstances) != 0 {
		t.Fatal("full launch should have empty control groups")
	}
}

func TestIdentifyImpactSetErrors(t *testing.T) {
	tp := paperTopology(2)
	if _, err := tp.IdentifyImpactSet("nope", nil); err == nil {
		t.Fatal("unknown service should error")
	}
	if _, err := tp.IdentifyImpactSet("svcA", []string{"srv-z"}); err == nil {
		t.Fatal("non-hosting server should error")
	}
}

func TestTreatedKPIs(t *testing.T) {
	tp := paperTopology(3)
	set, err := tp.IdentifyImpactSet("svcA", []string{server(0)})
	if err != nil {
		t.Fatal(err)
	}
	keys := set.TreatedKPIs([]string{"cpu", "mem"}, []string{"pv"})
	// 1 tserver × 2 server metrics + 1 tinstance × 1 metric +
	// changed service × 1 + 3 affected services × 1 = 7.
	if len(keys) != 7 {
		t.Fatalf("TreatedKPIs = %d keys: %v", len(keys), keys)
	}
	counts := map[Scope]int{}
	for _, k := range keys {
		counts[k.Scope]++
	}
	if counts[ScopeServer] != 2 || counts[ScopeInstance] != 1 || counts[ScopeService] != 4 {
		t.Fatalf("scope counts = %v", counts)
	}
}

func TestControlKPIs(t *testing.T) {
	tp := paperTopology(3)
	set, _ := tp.IdentifyImpactSet("svcA", []string{server(0)})
	srvKeys := set.ControlKPIs(KPIKey{ScopeServer, "srv-a", "cpu"})
	if len(srvKeys) != 2 || srvKeys[0].Entity != "srv-b" || srvKeys[0].Metric != "cpu" {
		t.Fatalf("server controls = %v", srvKeys)
	}
	instKeys := set.ControlKPIs(KPIKey{ScopeInstance, "svcA@srv-a", "pv"})
	if len(instKeys) != 2 {
		t.Fatalf("instance controls = %v", instKeys)
	}
	if got := set.ControlKPIs(KPIKey{ScopeService, "svcB", "pv"}); got != nil {
		t.Fatalf("service scope should have no concurrent control: %v", got)
	}
}

func TestKPIKeyString(t *testing.T) {
	k := KPIKey{ScopeInstance, "a@b", "pv"}
	if k.String() != "instance/a@b/pv" {
		t.Fatalf("String = %q", k.String())
	}
	if Scope(99).String() != "unknown" {
		t.Fatal("unknown scope string")
	}
}

func TestParentName(t *testing.T) {
	if parentName("a.b.c") != "a.b" || parentName("a") != "" {
		t.Fatal("parentName wrong")
	}
}

// Property: the impact set partitions the service's servers — every
// hosting server is exactly one of treated or control.
func TestImpactSetPartitionProperty(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		n := int(nRaw%10) + 2
		nt := int(tRaw)%n + 1
		tp := NewTopology()
		var servers []string
		for i := 0; i < n; i++ {
			srv := server(i % 26)
			if i >= 26 {
				srv += "x"
			}
			servers = append(servers, srv)
			tp.Deploy("svc", srv)
		}
		// Deduplicate (server names repeat past 26): rebuild actual set.
		hosting := tp.ServersOf("svc")
		if nt > len(hosting) {
			nt = len(hosting)
		}
		set, err := tp.IdentifyImpactSet("svc", hosting[:nt])
		if err != nil {
			return false
		}
		seen := map[string]int{}
		for _, s := range set.TServers {
			seen[s]++
		}
		for _, s := range set.CServers {
			seen[s]++
		}
		if len(seen) != len(hosting) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return len(set.TInstances)+len(set.CInstances) == len(hosting)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
