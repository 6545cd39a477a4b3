package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestUnreadExports runs the unread-export check over a fixture tree
// holding an export read by nothing, one read only by a test, one read
// only from a benchmark/ directory, one read bare in its own package, a
// root name read only by example_test.go, an allowlisted one, and an
// export of a main package, which is not checked. Only the first two
// may be reported; an allowlist entry naming an export that is read is
// reported as stale.
func TestUnreadExports(t *testing.T) {
	root := filepath.Join("testdata", "unread")
	pkgs, err := load(root, []string{".", "./internal/...", "./benchmark/..."})
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join(root, "allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllowlist(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"testdata/unread/internal/store/store.go:5: exported function Dead has no non-test reader",
		"testdata/unread/internal/store/store.go:8: exported function TestOnly has no non-test reader",
	}
	if got := unreadExports(pkgs, allow); !reflect.DeepEqual(got, want) {
		t.Fatalf("reported\n%q\nwant\n%q", got, want)
	}

	allow["internal/store Bare"] = "read bare, so the entry is stale"
	want = append(want, "allowlist.txt: internal/store Bare matches no unread export")
	if got := unreadExports(pkgs, allow); !reflect.DeepEqual(got, want) {
		t.Fatalf("with a stale entry, reported\n%q\nwant\n%q", got, want)
	}
}

// TestAllowlistNeedsReasons refuses an entry without a reason and an
// entry listed twice, and parses the committed allowlist.
func TestAllowlistNeedsReasons(t *testing.T) {
	for _, text := range []string{
		"internal/obs Thing\n",
		"internal/obs Thing why\ninternal/obs Thing why again\n",
	} {
		if _, err := parseAllowlist(text); err == nil {
			t.Errorf("parseAllowlist(%q) accepted it", text)
		}
	}
	if _, err := parseAllowlist(allowlistText); err != nil {
		t.Fatalf("committed allowlist: %v", err)
	}
}
