package changelog

import (
	"testing"
	"time"
)

var base = time.Date(2015, 12, 1, 12, 0, 0, 0, time.UTC)

func mk(id, svc string, at time.Time) Change {
	return Change{ID: id, Type: Upgrade, Service: svc, Servers: []string{"s1"}, At: at}
}

func TestAppendAndGet(t *testing.T) {
	l := NewLog()
	if err := l.Append(mk("c1", "svcA", base)); err != nil {
		t.Fatal(err)
	}
	c, ok := l.Get("c1")
	if !ok || c.Service != "svcA" {
		t.Fatalf("Get = %+v, %v", c, ok)
	}
	if _, ok := l.Get("zzz"); ok {
		t.Fatal("unknown ID should be !ok")
	}
	if l.Len() != 1 {
		t.Fatal("Len wrong")
	}
}

func TestAppendValidation(t *testing.T) {
	l := NewLog()
	if err := l.Append(Change{Service: "x"}); err == nil {
		t.Fatal("empty ID should error")
	}
	if err := l.Append(Change{ID: "a"}); err == nil {
		t.Fatal("empty service should error")
	}
	if err := l.Append(mk("a", "x", base)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mk("a", "y", base)); err == nil {
		t.Fatal("duplicate ID should error")
	}
}

func TestTimeOrderingUnderOutOfOrderAppend(t *testing.T) {
	l := NewLog()
	for _, c := range []Change{
		mk("late", "a", base.Add(2*time.Hour)),
		mk("early", "b", base),
		mk("mid", "c", base.Add(time.Hour)),
	} {
		if err := l.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	all := l.All()
	if all[0].ID != "early" || all[1].ID != "mid" || all[2].ID != "late" {
		t.Fatalf("order = %v %v %v", all[0].ID, all[1].ID, all[2].ID)
	}
	// Index map must survive the shifts.
	for _, id := range []string{"early", "mid", "late"} {
		if c, ok := l.Get(id); !ok || c.ID != id {
			t.Fatalf("Get(%q) broken after reorder", id)
		}
	}
}

func TestInRange(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		must(t, l.Append(mk(string(rune('a'+i)), "s", base.Add(time.Duration(i)*time.Hour))))
	}
	got := l.InRange(base.Add(time.Hour), base.Add(3*time.Hour))
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "c" {
		t.Fatalf("InRange = %+v", got)
	}
	if got := l.InRange(base.Add(10*time.Hour), base.Add(20*time.Hour)); len(got) != 0 {
		t.Fatal("empty range should be empty")
	}
}

func TestConcurrentWith(t *testing.T) {
	l := NewLog()
	c := mk("self", "a", base)
	must(t, l.Append(c))
	must(t, l.Append(mk("sameSvc", "a", base.Add(10*time.Minute))))
	must(t, l.Append(mk("other", "b", base.Add(20*time.Minute))))
	must(t, l.Append(mk("far", "c", base.Add(3*time.Hour))))
	got := l.ConcurrentWith(c, time.Hour)
	if len(got) != 1 || got[0].ID != "other" {
		t.Fatalf("ConcurrentWith = %+v", got)
	}
}

func TestTypeString(t *testing.T) {
	if Upgrade.String() != "upgrade" || Config.String() != "config" || Type(9).String() != "unknown" {
		t.Fatal("Type strings wrong")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestCombine(t *testing.T) {
	a := Change{ID: "a", Type: Config, Service: "svc", Servers: []string{"s2", "s1"}, At: base.Add(time.Hour), Description: "tune pool"}
	b := Change{ID: "b", Type: Upgrade, Service: "svc", Servers: []string{"s2", "s3"}, At: base, Description: "v2 rollout"}
	m, err := Combine("ab", []Change{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != "ab" || m.Type != Upgrade || !m.At.Equal(base) {
		t.Fatalf("merged = %+v", m)
	}
	want := []string{"s1", "s2", "s3"}
	if len(m.Servers) != 3 {
		t.Fatalf("servers = %v", m.Servers)
	}
	for i := range want {
		if m.Servers[i] != want[i] {
			t.Fatalf("servers = %v", m.Servers)
		}
	}
	if m.Description != "tune pool; v2 rollout" {
		t.Fatalf("description = %q", m.Description)
	}
}

func TestCombineErrors(t *testing.T) {
	if _, err := Combine("x", nil); err == nil {
		t.Fatal("empty combine should error")
	}
	a := mk("a", "svc1", base)
	b := mk("b", "svc2", base)
	if _, err := Combine("x", []Change{a, b}); err == nil {
		t.Fatal("cross-service combine should error")
	}
}
