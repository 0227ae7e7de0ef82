package experiments

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// pinnedMarkdown is the sha256 of the Markdown rendering of experiments
// whose every cell is deterministic and that a refactor of the shared
// development round must leave byte-identical: E9 (cross-campus matrix)
// and E18 (federated round). A change that moves every cell alike still
// fails here, where comparing configurations with each other would not.
var pinnedMarkdown = map[string]string{
	"E9":  "73ebf05939d5ee9141b6ea02afb55a0019c910eef2cba49ec199ff6bf91f2874",
	"E18": "8c0c3775702d3463b25518e50493ede749e78d208f08f151013b6a7c24fa749b",
}

// TestAllExperimentsRun executes every experiment once and checks the
// structural invariants: tables are well-formed and non-empty. Shape
// assertions specific to each experiment live below; the tables named in
// pinnedMarkdown are also checked byte for byte.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			switch {
			case raceEnabled && (r.ID == "E16" || r.ID == "E17" || r.ID == "E18" || r.ID == "E19"):
				// These four are the slow soak/comparison drivers (each
				// 1.5–4 minutes under the race detector; together they
				// push the package past the default -timeout), and every
				// experiment here is a single-threaded driver over a
				// subsystem that has its own dedicated race gate: the WAL
				// crash/checkpoint and concurrent-ingest races plus the
				// tier seal/compact/cache churn races in
				// internal/datastore cover E16/E17/E19, and the
				// concurrent-stream + coordinator-during-ingest races in
				// internal/fleet cover E18. Nothing is lost by skipping
				// the duplicates here.
				t.Skip("race-covered by the subsystem race gates")
			}
			tb, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tb.ID != r.ID {
				t.Errorf("table ID %q != runner ID %q", tb.ID, r.ID)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("empty table")
			}
			for i, row := range tb.Rows {
				if len(row) > len(tb.Columns) {
					t.Errorf("row %d has %d cells, %d columns", i, len(row), len(tb.Columns))
				}
			}
			if tb.String() == "" || tb.Markdown() == "" {
				t.Error("rendering failed")
			}
			if len(tb.Notes) == 0 {
				t.Error("missing expected-shape note")
			}
			if want, ok := pinnedMarkdown[r.ID]; ok {
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tb.Markdown()))); got != want {
					t.Errorf("%s table sha256 = %s, pinned %s:\n%s", r.ID, got, want, tb.Markdown())
				}
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("e5"); !ok {
		t.Error("case-insensitive find failed")
	}
	if _, ok := Find("E99"); ok {
		t.Error("found nonexistent experiment")
	}
}

func TestE3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("full-run duplicate; E3 is race-covered by TestAllExperimentsRun/E3")
	}
	tb, err := e3CaptureRate()
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: 10 Gbps, 1 consumer — must be lossless.
	loss := func(row []string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[5], "%"), 64)
		if err != nil {
			t.Fatalf("bad loss cell %q", row[5])
		}
		return v
	}
	if l := loss(tb.Rows[0]); l != 0 {
		t.Errorf("10 Gbps loss = %v%%, want 0", l)
	}
	if l := loss(tb.Rows[1]); l != 0 {
		t.Errorf("20 Gbps loss = %v%%, want 0 (the paper's campus envelope)", l)
	}
	// 40 Gbps overloads one core but not two; 100 Gbps needs scale-out.
	if l := loss(tb.Rows[2]); l == 0 {
		t.Error("40 Gbps on 1 core should overload")
	}
	if l := loss(tb.Rows[3]); l != 0 {
		t.Error("40 Gbps on 2 cores should be lossless")
	}
	l100x2, l100x4, l100x8 := loss(tb.Rows[4]), loss(tb.Rows[5]), loss(tb.Rows[6])
	if l100x2 == 0 {
		t.Error("100 Gbps on 2 cores should overload")
	}
	if l100x4 > l100x2 {
		t.Errorf("more consumers did not reduce loss: %v > %v", l100x4, l100x2)
	}
	if l100x8 != 0 {
		t.Errorf("100 Gbps on 8 cores loss = %v%%, want 0", l100x8)
	}
}

func TestE6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("full-run duplicate; E6 is race-covered by TestAllExperimentsRun/E6")
	}
	tb, err := e6ModelExtraction()
	if err != nil {
		t.Fatal(err)
	}
	fid := func(row []string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		return v
	}
	first, last := fid(tb.Rows[0]), fid(tb.Rows[len(tb.Rows)-1])
	if last < first {
		t.Errorf("fidelity shrank with depth: %v -> %v", first, last)
	}
	if last < 95 {
		t.Errorf("deep extraction fidelity = %v%%, want >= 95%%", last)
	}
}

func TestE15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("full-run duplicate; E15 is race-covered by TestAllExperimentsRun/E15")
	}
	tb, err := e15EnsembleFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("want 5 rows (3 budgets + tree + controlplane), got %d", len(tb.Rows))
	}
	if got := tb.Rows[0][1]; got != "exact" {
		t.Errorf("roomy budget mode = %q, want exact", got)
	}
	// Shrinking the budget must degrade, not fail: each sweep row reports a
	// valid mode and a parseable accuracy.
	acc := func(row []string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[6], "%"), 64)
		if err != nil {
			t.Fatalf("accuracy cell %q: %v", row[6], err)
		}
		return v
	}
	for _, row := range tb.Rows[:3] {
		switch row[1] {
		case "exact", "pruned", "fallback":
		default:
			t.Errorf("budget row mode = %q", row[1])
		}
		if acc(row) < 50 {
			t.Errorf("ensemble accuracy %v%% under budget %q; degradation should not collapse", acc(row), row[0])
		}
	}
	// The exact ensemble classifies at least as well as the extracted tree
	// on the same episode (it is the model the tree approximates).
	if acc(tb.Rows[0]) < acc(tb.Rows[3])-1 {
		t.Errorf("exact ensemble accuracy %v%% below extracted tree %v%%", acc(tb.Rows[0]), acc(tb.Rows[3]))
	}
	// And matches the control-plane forest exactly: same model, same input.
	if acc(tb.Rows[0]) != acc(tb.Rows[4]) {
		t.Errorf("exact ensemble accuracy %v%% != control-plane forest %v%%", acc(tb.Rows[0]), acc(tb.Rows[4]))
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", Columns: []string{"a", "bb"}}
	tb.addRow("1", "2")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	if !strings.Contains(s, "T — demo") || !strings.Contains(s, "note: a note") {
		t.Errorf("String = %q", s)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown = %q", md)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[string]string{
		fmtDur(500):           "500ns",
		fmtDur(1500):          "1.5µs",
		fmtDur(2_500_000):     "2.50ms",
		fmtDur(3_000_000_000): "3.00s",
		fmtDur(-1):            "n/a",
		fmtBytes(512):         "512B",
		fmtBytes(2048):        "2.0KiB",
		fmtBytes(5 << 30):     "5.0GiB",
		pct(0.123):            "12.30%",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestE16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("full-soak duplicate; E16 is race-covered by TestAllExperimentsRun/E16")
	}
	tb, err := e16ChaosSoak()
	if err != nil {
		t.Fatal(err)
	}
	// 6 crash epochs + 8 lifecycle ticks + arc verdict + determinism verdict.
	if len(tb.Rows) != 16 {
		t.Fatalf("want 16 rows, got %d", len(tb.Rows))
	}
	var rollback, reject, promote bool
	for _, row := range tb.Rows {
		switch row[0] {
		case "durability":
			if !strings.HasPrefix(row[6], "PASS") {
				t.Errorf("crash epoch %s: %s", row[1], row[6])
			}
		case "lifecycle":
			out := row[6]
			rollback = rollback || strings.Contains(out, "rolled back")
			reject = reject || strings.Contains(out, "rejected by canary")
			promote = promote || strings.Contains(out, "promoted")
			if row[1] == "self-healing arc" || row[1] == "determinism" {
				if !strings.HasPrefix(out, "PASS") {
					t.Errorf("%s: %s", row[1], out)
				}
			}
		}
	}
	if !rollback || !reject || !promote {
		t.Errorf("lifecycle arc incomplete: rollback=%v reject=%v promote=%v", rollback, reject, promote)
	}
}
