package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The fixture module holds one name of each class in internal/lib: called
// by internal/user's code, by the bench module only, by internal/user's
// test only, by lib's own test only, by nothing, a type no one names but
// NewT hands out, and a method satisfying fmt.Stringer. The type a T
// carries has a String that only internal/user's test calls: a method an
// interface forces to be exported is iface, not test. Of its unexported
// names, two only lib's own test calls (one of them also calls itself), one
// nothing calls, and a method only an in-package interface reaches is not
// listed. Its input struct Config has a field set by each kind of writer —
// internal/user's code through a key, an assignment and a taken address,
// the bench module, internal/user's test, lib's own test — and two nothing
// outside lib sets: one lib defaults, one internal/user only reads.
const fixture = "testdata/fixture"

var wantLib = []entry{
	{"prod", "Apply", ""},
	{"bench", "BenchOnly", ""},
	{"prod", "Config", ""},
	{"prod", "Label", ""},
	{"iface", "Label.String", ""},
	{"prod", "NewT", ""},
	{"unused", "OwnTestOnly", ""},
	{"prod", "Prod", ""},
	{"prod", "T", ""},
	{"unused", "T.Hidden", ""},
	{"iface", "T.String", ""},
	{"test", "TestOnly", ""},
	{"unused", "Unused", ""},
	{"seam", "countdown", ""},
	{"unused", "dead", ""},
	{"seam", "seamOnly", ""},
	{"field", "Config.Addressed", "prod"},
	{"field", "Config.Assigned", "prod"},
	{"field", "Config.BenchSet", "bench"},
	{"field", "Config.Defaulted", "unset"},
	{"field", "Config.Keyed", "prod"},
	{"field", "Config.OwnTestSet", "test"},
	{"field", "Config.Read", "unset"},
	{"field", "Config.TestSet", "test"},
}

func TestSurfaceClassifiesFixture(t *testing.T) {
	got, err := surface(fixture)
	if err != nil {
		t.Fatal(err)
	}
	// internal/user's use is called only by its own test.
	want := map[string][]entry{"internal/lib": wantLib, "internal/user": {{"seam", "use", ""}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("surface:\n got %v\nwant %v", got, want)
	}
}

// TestRunWritesThenChecks: the write mode writes the listing and reports
// the unused names; the check mode accepts the written files but still
// refuses the name only another package's test reaches, then fails on a
// stale listing and on a listing that names no package.
func TestRunWritesThenChecks(t *testing.T) {
	root := t.TempDir()
	copyTree(t, fixture, root)

	var out bytes.Buffer
	ok, err := run(root, false, &out)
	if err != nil || ok {
		t.Fatalf("write mode: ok=%v err=%v, want a failure for the unused names", ok, err)
	}
	for _, name := range []string{"OwnTestOnly", "T.Hidden", "Unused", "dead"} {
		if !strings.Contains(out.String(), "internal/lib."+name+" has no caller outside its package") {
			t.Errorf("unused %s not reported:\n%s", name, out.String())
		}
	}
	for _, name := range []string{"Config.Defaulted", "Config.Read"} {
		if !strings.Contains(out.String(), "internal/lib."+name+" is an input field nothing outside its package sets") {
			t.Errorf("unset %s not reported:\n%s", name, out.String())
		}
	}
	listing, err := os.ReadFile(filepath.Join(root, "api", "lib.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	want.WriteString("# internal/lib — regenerate with: go run ./tools/apisurface\n")
	for _, e := range wantLib {
		if e.class == "field" {
			want.WriteString("field  " + e.writer + strings.Repeat(" ", 7-len(e.writer)) + e.name + "\n")
		} else {
			want.WriteString(e.class + strings.Repeat(" ", 7-len(e.class)) + e.name + "\n")
		}
	}
	if string(listing) != want.String() {
		t.Errorf("api/lib.txt:\n%s\nwant:\n%s", listing, want.String())
	}

	check := func() string {
		t.Helper()
		var out bytes.Buffer
		if ok, err := run(root, true, &out); err != nil || ok {
			t.Fatalf("check mode: ok=%v err=%v, want a failure", ok, err)
		}
		return out.String()
	}
	got := check()
	if strings.Contains(got, "stale") || strings.Contains(got, "names no package") {
		t.Errorf("check mode rejected the listing it wrote:\n%s", got)
	}
	if !strings.Contains(got, "apisurface: internal/lib.TestOnly is referenced only by other packages' tests") {
		t.Errorf("test-only name not refused:\n%s", got)
	}
	if strings.Contains(got, "Label.String is referenced") {
		t.Errorf("a method an interface needs was refused as test-only:\n%s", got)
	}
	if err := os.WriteFile(filepath.Join(root, "api", "lib.txt"), append(listing, "prod   Extra\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := check(); !strings.Contains(got, "api/lib.txt is stale") {
		t.Errorf("stale listing not reported:\n%s", got)
	}
	if err := os.WriteFile(filepath.Join(root, "api", "gone.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := check(); !strings.Contains(got, "gone.txt names no package") {
		t.Errorf("orphan listing not reported:\n%s", got)
	}
}

func copyTree(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
