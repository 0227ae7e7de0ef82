package dataplane

import (
	"fmt"
	"math"

	"campuslab/internal/ml"
	"campuslab/internal/obs"
)

// CompileConfig controls tree-to-program compilation.
type CompileConfig struct {
	// Name labels the program.
	Name string
	// DropClasses lists model classes compiled to ActionDrop; other
	// non-zero classes become ActionAlert. Class 0 (benign) is permit.
	DropClasses []int
	// MinConfidence converts low-confidence attack leaves to ActionPunt
	// (send to control plane) instead of acting in the fast path — the
	// §2 "drop ... if confidence in detection is at least 90%" knob.
	MinConfidence float64
}

// Compile lowers an extracted decision tree into a match-action Program.
// The tree must be trained over features whose schema columns all resolve
// to matchable fields (features.PacketSchema). Each root-to-leaf path
// becomes one rule whose per-field intervals are the intersection of the
// path's threshold conditions.
func Compile(tree *ml.Tree, schema []string, cfg CompileConfig) (*Program, error) {
	defer obs.Default.StartSpan("compile").End()
	fields := make([]Field, len(schema))
	for i, name := range schema {
		f, err := fieldByName(name)
		if err != nil {
			return nil, fmt.Errorf("dataplane: schema column %d: %w", i, err)
		}
		fields[i] = f
	}
	drop := make(map[int]bool, len(cfg.DropClasses))
	for _, c := range cfg.DropClasses {
		drop[c] = true
	}
	prog := &Program{Name: cfg.Name, Default: ActionPermit}
	// Per-feature interval scratch, allocated once per compile (not per
	// rule) and reset at the top of each iteration.
	lo := make([]float64, len(schema))
	hi := make([]float64, len(schema))
	for _, rule := range tree.Rules() {
		if rule.Class == 0 {
			continue // benign leaves fall through to the default permit
		}
		// Intersect conditions into per-feature intervals.
		for i := range hi {
			hi[i] = math.Inf(1)
			lo[i] = math.Inf(-1)
		}
		for _, c := range rule.Conds {
			if c.Feature >= len(schema) {
				return nil, fmt.Errorf("dataplane: rule condition on feature %d outside schema", c.Feature)
			}
			if c.LE {
				if c.Thr < hi[c.Feature] {
					hi[c.Feature] = c.Thr
				}
			} else {
				if c.Thr > lo[c.Feature] {
					lo[c.Feature] = c.Thr
				}
			}
		}
		var conds []RangeCond
		unsat := false
		for i := range schema {
			if math.IsInf(lo[i], -1) && math.IsInf(hi[i], 1) {
				continue // unconstrained
			}
			f := fields[i]
			maxV := float64(f.maxValue())
			c := RangeCond{Field: f, Lo: 0, Hi: f.maxValue()}
			// Thresholds come from jittered training samples and can fall
			// outside the field's integer domain; clamp into [0, max].
			if !math.IsInf(lo[i], -1) {
				if lo[i] >= maxV {
					unsat = true // x > max is unsatisfiable
					break
				}
				if lo[i] >= 0 {
					// strict '>' on integers: lo bound is floor(thr)+1
					c.Lo = uint32(math.Floor(lo[i])) + 1
				}
			}
			if !math.IsInf(hi[i], 1) {
				if hi[i] < 0 {
					unsat = true // x <= negative is unsatisfiable
					break
				}
				if hi[i] < maxV {
					c.Hi = uint32(math.Floor(hi[i]))
				}
			}
			if c.Lo > c.Hi {
				unsat = true // empty interval after integer snapping
				break
			}
			if c.Lo == 0 && c.Hi == f.maxValue() {
				continue // clamping made the condition vacuous
			}
			conds = append(conds, c)
		}
		if unsat {
			continue // unreachable rule
		}
		action := ActionAlert
		if drop[rule.Class] {
			action = ActionDrop
		}
		if rule.Conf < cfg.MinConfidence {
			action = ActionPunt
		}
		prog.Rules = append(prog.Rules, Rule{
			Conds:      conds,
			Action:     action,
			Class:      rule.Class,
			Confidence: rule.Conf,
		})
	}
	return prog, nil
}
