// Package dataplane implements Figure 2's "target-specific program" and
// "switch": a P4-like match-action pipeline with a Tofino-flavoured
// resource model (stages, SRAM/TCAM entry budgets, range-to-ternary
// expansion), a compiler from extracted decision trees to classification
// rules, and a software switch that executes the program per packet.
//
// The resource model is the point, not an inconvenience: §2's observation
// that data planes "are currently not capable of supporting this
// capability at scale" falls out of the fit check (experiment E4).
package dataplane

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Field identifies a header field the pipeline can match on. Values are
// normalized to uint32.
type Field uint8

// Matchable per-packet fields (aligned with features.PacketSchema).
const (
	fieldWireLen Field = iota
	FieldIsUDP
	fieldIsTCP
	fieldDstPort
	fieldSrcPort
	fieldSynNoAck
	fieldDNSResp
	fieldDNSAny
	fieldDNSAnswers
	fieldTTL
	numFields
)

var fieldNames = [numFields]string{
	"wire_len", "is_udp", "is_tcp", "dst_port", "src_port",
	"tcp_syn_noack", "dns_resp", "dns_any", "dns_answers", "ttl",
}

// fieldWidths in bits, for TCAM expansion accounting.
var fieldWidths = [numFields]int{16, 1, 1, 16, 16, 1, 1, 1, 8, 8}

// String returns the field name.
func (f Field) String() string {
	if int(f) < len(fieldNames) {
		return fieldNames[f]
	}
	return fmt.Sprintf("field-%d", uint8(f))
}

// fieldByName resolves a features schema column to a Field.
func fieldByName(name string) (Field, error) {
	for i, n := range fieldNames {
		if n == name {
			return Field(i), nil
		}
	}
	return 0, fmt.Errorf("dataplane: no matchable field %q", name)
}

// maxValue returns the largest representable value for the field.
func (f Field) maxValue() uint32 {
	if int(f) >= len(fieldWidths) {
		return 0
	}
	w := fieldWidths[f]
	if w >= 32 {
		return math.MaxUint32
	}
	return 1<<w - 1
}

// RangeCond is a closed interval condition on one field.
type RangeCond struct {
	Field Field
	Lo    uint32
	Hi    uint32 // inclusive
}

// matches reports whether v satisfies the condition.
func (c RangeCond) matches(v uint32) bool { return v >= c.Lo && v <= c.Hi }

// prefixCount returns how many ternary (prefix) entries the range [lo,hi]
// expands into — the classic TCAM range-expansion cost.
func prefixCount(lo, hi uint32, width int) int {
	if lo > hi {
		return 0
	}
	count := 0
	for lo <= hi {
		// Largest aligned block starting at lo that fits within hi.
		maxBlock := uint32(1) << bits.TrailingZeros32(lo|1<<width)
		for lo+maxBlock-1 > hi {
			maxBlock >>= 1
		}
		count++
		next := lo + maxBlock
		if next < lo { // overflow: block reached the top
			break
		}
		lo = next
	}
	return count
}

// ActionKind is what a matching rule does.
type ActionKind uint8

// Rule actions.
const (
	// ActionPermit forwards the packet unchanged.
	ActionPermit ActionKind = iota
	// ActionDrop discards the packet.
	ActionDrop
	// ActionAlert forwards but raises an event to the control plane.
	ActionAlert
	// ActionPunt sends the packet to the control plane for a decision
	// (slow path).
	ActionPunt
)

// String returns the action name.
func (a ActionKind) String() string {
	switch a {
	case ActionPermit:
		return "permit"
	case ActionDrop:
		return "drop"
	case ActionAlert:
		return "alert"
	case ActionPunt:
		return "punt"
	default:
		return fmt.Sprintf("action-%d", uint8(a))
	}
}

// Rule is one classification entry: a conjunction of range conditions with
// an action, a predicted class, and the model confidence behind it.
type Rule struct {
	Conds      []RangeCond
	Action     ActionKind
	Class      int
	Confidence float64
}

// matches evaluates the rule against a field vector.
func (r *Rule) matches(fv *fieldVector) bool {
	for _, c := range r.Conds {
		if !c.matches(fv.get(c.Field)) {
			return false
		}
	}
	return true
}

// scan is the linear-scan reference of the program stage: the first
// matching rule wins, else the default action.
func (p *Program) scan(fv *fieldVector) Verdict {
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.matches(fv) {
			return Verdict{Action: r.Action, Class: r.Class, Confidence: r.Confidence, RuleIndex: i}
		}
	}
	return Verdict{Action: p.Default, RuleIndex: -1}
}

// String renders the rule.
func (r *Rule) String() string {
	conds := make([]string, len(r.Conds))
	for i, c := range r.Conds {
		conds[i] = fmt.Sprintf("%v in [%d,%d]", c.Field, c.Lo, c.Hi)
	}
	cond := strings.Join(conds, " && ")
	if cond == "" {
		cond = "true"
	}
	return fmt.Sprintf("if %s -> %v class=%d conf=%.2f", cond, r.Action, r.Class, r.Confidence)
}

// Program is a compiled classification program: an ordered rule list
// (first match wins; tree-compiled rules are disjoint so order is
// cosmetic) plus a default action.
type Program struct {
	Name    string
	Rules   []Rule
	Default ActionKind
}

// TCAMCost models the decomposed layout real tree-to-switch compilers
// (IIsy/Mousika-style) emit: one range-encoding table per matched field
// (each interval between threshold cut points expands to prefixes —
// additive across fields, not multiplicative), plus one exact-match
// verdict entry per rule over the encoded range IDs.
func (p *Program) TCAMCost() int {
	cuts := map[Field]map[uint32]bool{}
	for i := range p.Rules {
		for _, c := range p.Rules[i].Conds {
			m := cuts[c.Field]
			if m == nil {
				m = make(map[uint32]bool)
				cuts[c.Field] = m
			}
			m[c.Lo] = true
			if c.Hi < c.Field.maxValue() {
				m[c.Hi+1] = true
			}
		}
	}
	total := len(p.Rules) // verdict table: one exact entry per rule
	for f, m := range cuts {
		points := make([]uint32, 0, len(m)+1)
		points = append(points, 0)
		for v := range m {
			if v != 0 {
				points = append(points, v)
			}
		}
		sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
		w := fieldWidths[f]
		for i, lo := range points {
			hi := f.maxValue()
			if i+1 < len(points) {
				hi = points[i+1] - 1
			}
			total += prefixCount(lo, hi, w)
		}
	}
	return total
}

// matchedFields returns the distinct fields the program matches on.
func (p *Program) matchedFields() int {
	seen := map[Field]bool{}
	for i := range p.Rules {
		for _, c := range p.Rules[i].Conds {
			seen[c.Field] = true
		}
	}
	return len(seen)
}

// stagesNeeded models the decomposed layout's pipeline depth: field
// range-encoding tables pack four to a stage (they are independent), plus
// one verdict stage.
func (p *Program) stagesNeeded() int {
	f := p.matchedFields()
	if f == 0 && len(p.Rules) == 0 {
		return 0
	}
	return (f+3)/4 + 1
}

// Resources is the switch resource budget, Tofino-flavoured defaults.
type Resources struct {
	// Stages is the number of match-action stages (Tofino: 12).
	Stages int
	// TCAMEntries is the total ternary entry budget across stages.
	TCAMEntries int
	// ExactEntries is the exact-match (SRAM) entry budget, consumed by
	// the runtime filter table (installed drop rules).
	ExactEntries int
}

// DefaultResources returns a Tofino-like budget.
func DefaultResources() Resources {
	return Resources{Stages: 12, TCAMEntries: 3072, ExactEntries: 65536}
}

// FitReport details whether a set of programs fits the budget.
type FitReport struct {
	Programs     int
	TCAMUsed     int
	TCAMBudget   int
	StagesNeeded int
	StagesBudget int
	Fits         bool
	Reason       string
}

// Fit checks whether the programs fit the resource budget together (the
// E4 question: how many concurrent automation tasks can one switch run?).
func (res Resources) Fit(programs ...*Program) FitReport {
	rep := FitReport{
		Programs:     len(programs),
		TCAMBudget:   res.TCAMEntries,
		StagesBudget: res.Stages,
		Fits:         true,
	}
	for _, p := range programs {
		rep.TCAMUsed += p.TCAMCost()
		// Programs share stages via table packing, so the deepest
		// program's pipeline bounds the stage requirement.
		if s := p.stagesNeeded(); s > rep.StagesNeeded {
			rep.StagesNeeded = s
		}
	}
	if rep.TCAMUsed > rep.TCAMBudget {
		rep.Fits = false
		rep.Reason = fmt.Sprintf("TCAM: need %d entries, budget %d", rep.TCAMUsed, rep.TCAMBudget)
	} else if rep.StagesNeeded > rep.StagesBudget {
		rep.Fits = false
		rep.Reason = fmt.Sprintf("stages: need %d, budget %d", rep.StagesNeeded, rep.StagesBudget)
	}
	return rep
}

// MaxConcurrent returns how many copies of prog fit the budget — the E4
// scaling curve in one call.
func (res Resources) MaxConcurrent(prog *Program) int {
	if prog.stagesNeeded() > res.Stages {
		return 0
	}
	cost := prog.TCAMCost()
	if cost == 0 {
		return math.MaxInt32
	}
	return res.TCAMEntries / cost
}
