// Package experiments contains the reproduction harness: one function per
// experiment in DESIGN.md's index (E1-E15), each regenerating the
// measurement that substantiates a figure or quantitative claim of the
// paper. The cmd/campuslab driver prints these tables; bench_test.go wraps
// them as benchmarks; EXPERIMENTS.md records their output.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's result in paper form: labeled columns, rows of
// formatted cells, and prose notes recording the expected shape.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// addRow appends a formatted row.
func (t *Table) addRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the table as GitHub markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// All returns every experiment in index order.
func All() []Runner {
	return []Runner{
		{"E1", "data-source pipeline throughput", e1Pipeline},
		{"E2", "control-loop tier latency (Figure 2)", e2ControlLoopTiers},
		{"E3", "lossless capture vs offered load", e3CaptureRate},
		{"E4", "concurrent tasks vs dataplane resources", e4TaskScaling},
		{"E5", "DNS-amplification mitigation at 90% confidence", e5DNSAmpMitigation},
		{"E6", "model extraction fidelity vs depth", e6ModelExtraction},
		{"E7", "store volume vs retention", e7StoreRetention},
		{"E8", "anonymization cost and property checks", e8Anonymization},
		{"E9", "cross-campus reproducibility", e9CrossCampus},
		{"E10", "top-down vs bottom-up data", e10TopDownVsBottomUp},
		{"E11", "canary rollback safety", e11CanaryRollback},
		{"E12", "tree compile cost vs depth", e12Compile},
		{"E13", "multi-task suite across tiers", e13MultiTask},
		{"E14", "chaos road test: mitigation under injected faults", e14ChaosLoop},
		{"E15", "ensemble-in-dataplane frontier vs resource budgets", e15EnsembleFrontier},
		{"E16", "chaos soak: crash/restart durability and self-healing lifecycle", e16ChaosSoak},
		{"E17", "tiered retention: bounded hot slab over a 25x stream", e17TieredRetention},
		{"E18", "multi-campus fleet: train-here/test-there vs federated recall", e18FleetFederation},
		{"E19", "cold-tier query fast path: block decode, cache", e19ColdQueryFastPath},
	}
}

// Find returns the runner with the given ID (case-insensitive).
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

// fmtDur renders durations compactly for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d < 0:
		return "n/a"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtBytes renders byte counts with binary units.
func fmtBytes(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// pct renders a fraction as a percentage cell.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }
