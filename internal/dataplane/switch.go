package dataplane

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"campuslab/internal/faults"
	"campuslab/internal/obs"
	"campuslab/internal/packet"
)

// errTableFull reports a rule install rejected because the exact-match
// table budget is exhausted — a permanent condition until entries are
// removed; retrying without freeing space cannot succeed.
var errTableFull = errors.New("dataplane: filter table full")

// fieldVector is the per-packet header view the pipeline matches on.
type fieldVector struct {
	vals [numFields]uint32
}

// get returns the value of field f.
func (fv *fieldVector) get(f Field) uint32 { return fv.vals[f] }

// set assigns field f (tests and synthetic traffic).
func (fv *fieldVector) set(f Field, v uint32) { fv.vals[f] = v }

// fromSummary fills the vector from a parsed packet summary — the switch
// "parser" stage.
func (fv *fieldVector) fromSummary(s *packet.Summary) {
	fv.vals[fieldWireLen] = clampU32(s.WireLen)
	fv.vals[FieldIsUDP] = b2u(s.HasUDP)
	fv.vals[fieldIsTCP] = b2u(s.HasTCP)
	fv.vals[fieldDstPort] = uint32(s.Tuple.DstPort)
	fv.vals[fieldSrcPort] = uint32(s.Tuple.SrcPort)
	fv.vals[fieldSynNoAck] = b2u(s.HasTCP && s.TCPFlags.Has(packet.TCPSyn) && !s.TCPFlags.Has(packet.TCPAck))
	fv.vals[fieldDNSResp] = b2u(s.IsDNS && s.DNSResponse)
	fv.vals[fieldDNSAny] = b2u(s.IsDNS && s.DNSQueryType == packet.DNSTypeANY)
	fv.vals[fieldDNSAnswers] = clampU32(s.DNSAnswerCnt)
	fv.vals[fieldTTL] = uint32(s.TTL)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func clampU32(v int) uint32 {
	if v < 0 {
		return 0
	}
	if v > 0xffff {
		return 0xffff
	}
	return uint32(v)
}

// Verdict is the pipeline's decision for one packet.
type Verdict struct {
	Action     ActionKind
	Class      int
	Confidence float64
	// RuleIndex is the matching classification rule, -1 for default or
	// filter-table hits.
	RuleIndex int
	// FilterHit reports the packet matched an installed runtime filter.
	FilterHit bool
}

// FilterKey is an exact-match runtime filter entry key: drop traffic to a
// victim, optionally narrowed by source and port.
type FilterKey struct {
	DstIP   netip.Addr
	SrcIP   netip.Addr        // zero value = wildcard
	DstPort uint16            // 0 = wildcard
	Proto   packet.IPProtocol // 0 = wildcard
}

// Probe-form bitmask: ProcessAt probes up to five key shapes, most to
// least specific. An installed entry is only reachable through forms
// whose omitted fields are zero in the entry, so the state precomputes
// which forms can possibly hit and the verdict path skips the rest.
const (
	shapeFull        uint8 = 1 << iota // {DstIP, SrcIP, DstPort, Proto}
	shapeDstPortProt                   // {DstIP, DstPort, Proto}
	shapeDstProt                       // {DstIP, Proto}
	shapeDst                           // {DstIP}
	shapeSrc                           // {SrcIP}
)

// probeShapes returns the forms that could ever look up key k. Form 0
// copies every tuple field from the packet, so it can reach any entry;
// the narrower forms leave fields at their zero value and thus only
// reach entries whose corresponding fields are zero too.
func probeShapes(k FilterKey) uint8 {
	m := shapeFull
	zSrc := k.SrcIP == netip.Addr{}
	if zSrc {
		m |= shapeDstPortProt
		if k.DstPort == 0 {
			m |= shapeDstProt
			if k.Proto == 0 {
				m |= shapeDst
			}
		}
	}
	if (k.DstIP == netip.Addr{}) && k.DstPort == 0 && k.Proto == 0 {
		m |= shapeSrc
	}
	return m
}

// filterEntry is one slot of the combined filter+meter table. A key may
// carry both (a filter installed over an existing meter); the filter
// wins, matching the historical probe order.
type filterEntry struct {
	act      ActionKind
	isFilter bool
	meter    *tokenBucket
}

// pipelineState is the switch's entire read-mostly state as one immutable
// value published RCU-style: the verdict path loads it once per packet
// (or per batch) with a single atomic pointer read and never takes a
// lock. Writers (Load/Install/Remove) copy, modify, and swap under a
// writer mutex.
type pipelineState struct {
	prog *Program         // defensively copied at Load; nil = no program
	dag  *compiledProgram // compiled fast path; nil = linear-scan reference
	// perRule carries the per-rule match counters (atomic access). The
	// slice is shared across filter-table swaps so counts survive
	// mitigation installs, and replaced on Load.
	perRule []uint64

	// ens is the compiled ensemble pipeline; when set it replaces the
	// rule program as the classification stage (filters/meters still run
	// first).
	ens *ensembleState

	table    map[FilterKey]filterEntry
	nFilters int
	nMeters  int
	shapes   uint8
}

// evalRules classifies fv against the loaded classification stage
// (filters already missed): the ensemble pipeline when one is installed,
// else the rule program. Pure: no counters, no mutation. m is the calling
// batch's ensemble memo, nil on the single-packet path.
func (st *pipelineState) evalRules(fv *fieldVector, m *ensMemo) Verdict {
	if st.ens != nil {
		return st.ens.eval(fv, m)
	}
	if st.dag != nil {
		return st.dag.eval(fv)
	}
	if st.prog != nil {
		for i := range st.prog.Rules {
			r := &st.prog.Rules[i]
			if r.matches(fv) {
				return Verdict{
					Action: r.Action, Class: r.Class,
					Confidence: r.Confidence, RuleIndex: i,
				}
			}
		}
		return Verdict{Action: st.prog.Default, RuleIndex: -1}
	}
	return Verdict{Action: ActionPermit, RuleIndex: -1}
}

// lookup probes one filter key, charging the meter on a meter hit.
func (st *pipelineState) lookup(ts time.Duration, k FilterKey, wireLen int) (Verdict, bool) {
	e, ok := st.table[k]
	if !ok {
		return Verdict{}, false
	}
	if e.isFilter {
		return Verdict{Action: e.act, RuleIndex: -1, FilterHit: true}, true
	}
	if e.meter.conforms(ts, wireLen) {
		return Verdict{Action: ActionPermit, RuleIndex: -1, FilterHit: true}, true
	}
	return Verdict{Action: ActionDrop, RuleIndex: -1, FilterHit: true}, true
}

// eval runs the full pipeline: runtime filters first (mitigations beat
// classification), then meters, then the program. Meters aside, eval is
// pure; counters are recorded separately by the caller.
func (st *pipelineState) eval(ts time.Duration, s *packet.Summary, fv *fieldVector, m *ensMemo) Verdict {
	if st.shapes != 0 {
		t := &s.Tuple
		if st.shapes&shapeFull != 0 {
			if v, ok := st.lookup(ts, FilterKey{DstIP: t.DstIP, SrcIP: t.SrcIP, DstPort: t.DstPort, Proto: t.Proto}, s.WireLen); ok {
				return v
			}
		}
		if st.shapes&shapeDstPortProt != 0 {
			if v, ok := st.lookup(ts, FilterKey{DstIP: t.DstIP, DstPort: t.DstPort, Proto: t.Proto}, s.WireLen); ok {
				return v
			}
		}
		if st.shapes&shapeDstProt != 0 {
			if v, ok := st.lookup(ts, FilterKey{DstIP: t.DstIP, Proto: t.Proto}, s.WireLen); ok {
				return v
			}
		}
		if st.shapes&shapeDst != 0 {
			if v, ok := st.lookup(ts, FilterKey{DstIP: t.DstIP}, s.WireLen); ok {
				return v
			}
		}
		if st.shapes&shapeSrc != 0 {
			if v, ok := st.lookup(ts, FilterKey{SrcIP: t.SrcIP}, s.WireLen); ok {
				return v
			}
		}
	}
	return st.evalRules(fv, m)
}

// Switch is the software programmable switch: a loaded classification
// program plus a runtime exact-match filter table the control plane
// installs mitigations into. The per-packet path is lock-free: all
// read-mostly state lives in one immutable pipelineState behind an
// atomic pointer and every counter is atomic. Safe for concurrent use;
// installs are copy-on-write and O(table size).
type Switch struct {
	res   Resources
	state atomic.Pointer[pipelineState]
	gen   atomic.Uint64 // bumped on every state publish

	// writeMu serializes state writers (Load, installs, removes) and
	// guards the fault injector and scan-path knob.
	writeMu  sync.Mutex
	faults   faults.Injector // nil = healthy
	scanOnly bool

	// ctr holds the verdict counters — the only atomics the per-packet
	// path touches besides the state pointer and perRule slots. The
	// block lives behind a pointer so the obs registry can aggregate
	// every switch's counters at snapshot time (see obs.go); Processed
	// is derived: the action counters partition it.
	ctr *switchCounters
}

// NewSwitch creates a switch with the given resource budget, on the
// compiled fast path (setScanOnly moves it to the linear-scan reference).
func NewSwitch(res Resources) *Switch {
	sw := &Switch{res: res, ctr: newSwitchCounters()}
	sw.state.Store(&pipelineState{table: map[FilterKey]filterEntry{}})
	return sw
}

// publish swaps in the next state and bumps the generation. Callers hold
// writeMu.
func (sw *Switch) publish(st *pipelineState) {
	sw.state.Store(st)
	sw.gen.Add(1)
	obsStatePublishes.Inc()
}

// mutate builds the successor state from a copy of the current one
// (shared program/DAG/counters, fresh table map) and publishes it.
// Callers hold writeMu.
func (sw *Switch) mutate(edit func(next *pipelineState)) {
	cur := sw.state.Load()
	next := *cur
	next.table = make(map[FilterKey]filterEntry, len(cur.table)+1)
	for k, e := range cur.table {
		next.table[k] = e
	}
	edit(&next)
	next.shapes = 0
	for k := range next.table {
		next.shapes |= probeShapes(k)
	}
	sw.publish(&next)
}

// Load installs the classification program after a resource fit check.
// The program is copied and compiled to a decision DAG (unless the scan
// path is forced); the caller keeps ownership of prog.
func (sw *Switch) Load(prog *Program) error {
	defer obs.Default.StartSpan("install").End()
	if rep := sw.res.Fit(prog); !rep.Fits {
		return fmt.Errorf("dataplane: program %q does not fit: %s", prog.Name, rep.Reason)
	}
	own := cloneProgram(prog)
	var dag *compiledProgram
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	if !sw.scanOnly {
		dag = compileDAG(own)
	}
	sw.mutate(func(next *pipelineState) {
		next.prog = own
		next.dag = dag
		next.perRule = make([]uint64, len(own.Rules))
	})
	if dag != nil {
		obsCompilesDag.Inc()
	} else {
		obsCompilesScan.Inc()
	}
	return nil
}

// LoadEnsemble installs a compiled ensemble pipeline as the classification
// stage, replacing any previous ensemble. The program is immutable after
// compilation, so it is published as-is behind the RCU pointer; a loaded
// rule program stays installed underneath and resumes if the ensemble is
// unloaded. Resource admission already happened at compile time against
// the EnsembleConfig budget; usage is exported as obs gauges here.
func (sw *Switch) LoadEnsemble(ep *EnsembleProgram) error {
	defer obs.Default.StartSpan("install").End()
	if ep == nil {
		return fmt.Errorf("dataplane: nil ensemble program")
	}
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	sw.mutate(func(next *pipelineState) {
		next.ens = &ensembleState{ep: ep, scan: sw.scanOnly}
	})
	countEnsembleLoad(ep.usage)
	return nil
}

// unloadEnsemble removes the ensemble stage (the rule program, if any,
// takes over again), reporting whether one was installed.
func (sw *Switch) unloadEnsemble() bool {
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	if sw.state.Load().ens == nil {
		return false
	}
	sw.mutate(func(next *pipelineState) { next.ens = nil })
	return true
}

// ensembleLoaded reports whether an ensemble pipeline is installed.
func (sw *Switch) ensembleLoaded() bool {
	return sw.state.Load().ens != nil
}

// EnsembleInfo returns a copy of the installed ensemble's resource usage
// (mode, tree/node/entry/stage counts, budget) and whether one is
// installed. The copy is deep — mutating it never touches the running
// pipeline.
func (sw *Switch) EnsembleInfo() (EnsembleUsage, bool) {
	st := sw.state.Load()
	if st.ens == nil {
		return EnsembleUsage{}, false
	}
	return st.ens.ep.usage.clone(), true
}

// cloneProgram deep-copies a program so neither the loader nor program()
// callers can mutate the rules the verdict path is executing.
func cloneProgram(p *Program) *Program {
	if p == nil {
		return nil
	}
	cp := &Program{Name: p.Name, Default: p.Default, Rules: make([]Rule, len(p.Rules))}
	copy(cp.Rules, p.Rules)
	for i := range cp.Rules {
		cp.Rules[i].Conds = append([]RangeCond(nil), cp.Rules[i].Conds...)
	}
	return cp
}

// program returns a copy of the loaded program (nil if none). Mutating
// the returned value never affects the running pipeline.
func (sw *Switch) program() *Program {
	return cloneProgram(sw.state.Load().prog)
}

// compiled reports whether the active program runs on the compiled DAG
// fast path (false: linear-scan reference, by knob or compile fallback).
func (sw *Switch) compiled() bool {
	return sw.state.Load().dag != nil
}

// setScanOnly forces (or releases) the linear-scan reference path,
// recompiling the currently loaded program accordingly — the knob the
// equivalence tests and a suspicious operator flip.
func (sw *Switch) setScanOnly(scan bool) {
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	sw.scanOnly = scan
	cur := sw.state.Load()
	progStale := cur.prog != nil && (cur.dag == nil) != scan
	ensStale := cur.ens != nil && cur.ens.scan != scan
	if !progStale && !ensStale {
		return
	}
	var dag *compiledProgram
	if progStale && !scan {
		dag = compileDAG(cur.prog)
	}
	sw.mutate(func(next *pipelineState) {
		if progStale {
			next.dag = dag
		}
		if ensStale {
			next.ens = &ensembleState{ep: next.ens.ep, scan: scan}
		}
	})
}

// StateGen returns the state generation, bumped on every Load, install
// or remove. Batch consumers use it to detect mid-batch table changes.
func (sw *Switch) StateGen() uint64 { return sw.gen.Load() }

// SetFaultInjector points the switch's install path at a fault injector
// (nil restores always-healthy). Real switches lose rule installs — the
// control channel drops a message, the table manager is busy — and this is
// where road tests make that happen on demand.
func (sw *Switch) SetFaultInjector(inj faults.Injector) {
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	sw.faults = inj
}

// failInstall consults the injector for one install attempt. Callers hold
// writeMu.
func (sw *Switch) failInstall() error {
	if sw.faults == nil {
		return nil
	}
	if err := sw.faults.Fail(faults.OpInstall); err != nil {
		return fmt.Errorf("dataplane: install: %w", err)
	}
	return nil
}

// InstallFilter adds a runtime filter entry, honoring the exact-match
// table budget. Errors are typed: injected faults classify via
// faults.IsTransient, table exhaustion is errTableFull
// (permanent — retrying cannot succeed until entries are removed).
func (sw *Switch) InstallFilter(key FilterKey, action ActionKind) error {
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	if err := sw.failInstall(); err != nil {
		obsInstallErr.Inc()
		return err
	}
	cur := sw.state.Load()
	exists := cur.table[key].isFilter
	if !exists && cur.nFilters >= sw.res.ExactEntries {
		obsInstallErr.Inc()
		return fmt.Errorf("%w (%d entries)", errTableFull, sw.res.ExactEntries)
	}
	sw.mutate(func(next *pipelineState) {
		e := next.table[key]
		e.act, e.isFilter = action, true
		next.table[key] = e
		if !exists {
			next.nFilters++
		}
	})
	obsInstallOK.Inc()
	return nil
}

// InstallRateLimit attaches a meter to a filter key: matching traffic is
// passed within rateBps bytes/second (+burst) and dropped beyond — the
// softer mitigation for victims that still need their protocol to work.
func (sw *Switch) InstallRateLimit(key FilterKey, rateBps, burst float64) error {
	tb, err := newTokenBucket(rateBps, burst)
	if err != nil {
		return err
	}
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	if err := sw.failInstall(); err != nil {
		obsMeterErr.Inc()
		return err
	}
	cur := sw.state.Load()
	exists := cur.table[key].meter != nil
	if !exists && cur.nFilters+cur.nMeters >= sw.res.ExactEntries {
		obsMeterErr.Inc()
		return fmt.Errorf("%w (%d entries)", errTableFull, sw.res.ExactEntries)
	}
	sw.mutate(func(next *pipelineState) {
		e := next.table[key]
		e.meter = tb
		next.table[key] = e
		if !exists {
			next.nMeters++
		}
	})
	obsMeterOK.Inc()
	return nil
}

// removeFilter deletes a filter or meter entry, reporting whether it
// existed.
func (sw *Switch) removeFilter(key FilterKey) bool {
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	cur := sw.state.Load()
	e, ok := cur.table[key]
	if !ok {
		return false
	}
	sw.mutate(func(next *pipelineState) {
		delete(next.table, key)
		if e.isFilter {
			next.nFilters--
		}
		if e.meter != nil {
			next.nMeters--
		}
	})
	obsRemoves.Inc()
	return true
}

// filterCount returns the number of installed filters and meters.
func (sw *Switch) filterCount() int {
	st := sw.state.Load()
	return st.nFilters + st.nMeters
}

// ProcessAt runs one packet summary through the pipeline at time ts:
// runtime filters first (mitigations beat classification), then meters,
// then the program rules, then the default action. Lock-free and
// allocation-free: one atomic state load plus atomic counter updates.
func (sw *Switch) ProcessAt(ts time.Duration, s *packet.Summary) Verdict {
	st := sw.state.Load()
	var fv fieldVector
	fv.fromSummary(s)
	v := st.eval(ts, s, &fv, nil)
	sw.record(st, v)
	return v
}

// ProcessBatchAt runs a batch at per-packet timestamps (ts may be nil for
// t=0), appending verdicts to out (pass out[:0] to reuse a buffer).
// Counters are recorded per packet; the state is loaded once for the
// whole batch, so a concurrent install becomes visible at the next batch.
// Filters and meters are probed per packet, in order; only the ensemble
// stage behind them is served through the batch's code-word memo.
func (sw *Switch) ProcessBatchAt(ts []time.Duration, sums []packet.Summary, out []Verdict) []Verdict {
	st := sw.state.Load()
	var fv fieldVector
	var memo *ensMemo
	if st.ens.memoizes() {
		memo = new(ensMemo) // does not escape: the caller's stack, this batch
	}
	// Action tallies accumulate locally and flush as one atomic add per
	// counter per batch; only the per-rule/filter attribution stays
	// per-packet.
	var acts [4]uint64
	var filterHits uint64
	for i := range sums {
		var t time.Duration
		if ts != nil {
			t = ts[i]
		}
		fv.fromSummary(&sums[i])
		v := st.eval(t, &sums[i], &fv, memo)
		a := v.Action
		if a > ActionPunt {
			a = ActionPermit
		}
		acts[a]++
		if v.FilterHit {
			filterHits++
		} else if v.RuleIndex >= 0 && v.RuleIndex < len(st.perRule) {
			atomic.AddUint64(&st.perRule[v.RuleIndex], 1)
		}
		out = append(out, v)
	}
	if acts[ActionPermit] != 0 {
		sw.ctr.permitted.Add(acts[ActionPermit])
	}
	if acts[ActionDrop] != 0 {
		sw.ctr.dropped.Add(acts[ActionDrop])
	}
	if acts[ActionAlert] != 0 {
		sw.ctr.alerted.Add(acts[ActionAlert])
	}
	if acts[ActionPunt] != 0 {
		sw.ctr.punted.Add(acts[ActionPunt])
	}
	if filterHits != 0 {
		sw.ctr.filterHits.Add(filterHits)
	}
	countBatch(st, len(sums), memo)
	return out
}

// ClassifyBatch precomputes verdicts for a batch without recording
// counters or charging meters, filling out[i] per summary. It returns
// the state generation the verdicts were computed under and whether the
// precompute is valid — false when meters are installed, because then
// classification has side effects and callers must fall back to
// ProcessAt. The control loop uses this to batch the sense stage and
// commit verdicts one by one as it consumes them (re-evaluating from the
// first packet after a mid-batch install, detected via StateGen).
func (sw *Switch) ClassifyBatch(sums []*packet.Summary, out []Verdict) (uint64, bool) {
	st := sw.state.Load()
	gen := sw.gen.Load()
	if st.nMeters > 0 || sw.state.Load() != st {
		return gen, false
	}
	var fv fieldVector
	var memo *ensMemo
	if st.ens.memoizes() {
		memo = new(ensMemo)
	}
	for i, s := range sums {
		fv.fromSummary(s)
		out[i] = st.eval(0, s, &fv, memo)
	}
	countBatch(st, len(sums), memo)
	return gen, true
}

// CommitVerdict records a verdict previously computed by ClassifyBatch
// into the switch counters. Callers must have checked StateGen still
// matches the ClassifyBatch generation.
func (sw *Switch) CommitVerdict(v Verdict) {
	sw.record(sw.state.Load(), v)
}

// record tallies one verdict: exactly one action counter plus the
// filter-hit or per-rule attribution. The processed total is not a
// separate counter — it is the sum of the four action counters, which
// makes the "every verdict counted exactly once" invariant structural.
func (sw *Switch) record(st *pipelineState, v Verdict) {
	switch v.Action {
	case ActionDrop:
		sw.ctr.dropped.Add(1)
	case ActionAlert:
		sw.ctr.alerted.Add(1)
	case ActionPunt:
		sw.ctr.punted.Add(1)
	default:
		sw.ctr.permitted.Add(1)
	}
	if v.FilterHit {
		sw.ctr.filterHits.Add(1)
	} else if v.RuleIndex >= 0 && v.RuleIndex < len(st.perRule) {
		atomic.AddUint64(&st.perRule[v.RuleIndex], 1)
	}
}

// SwitchStats is the switch's counter snapshot.
type SwitchStats struct {
	Processed  uint64
	Permitted  uint64
	Dropped    uint64
	Alerted    uint64
	Punted     uint64
	FilterHits uint64
	PerRule    []uint64
}

// Stats returns a snapshot of all counters. Every verdict is counted in
// exactly one of Permitted/Dropped/Alerted/Punted, so those always sum
// to Processed.
func (sw *Switch) Stats() SwitchStats {
	st := sw.state.Load()
	per := make([]uint64, len(st.perRule))
	for i := range st.perRule {
		per[i] = atomic.LoadUint64(&st.perRule[i])
	}
	s := SwitchStats{
		Permitted:  sw.ctr.permitted.Load(),
		Dropped:    sw.ctr.dropped.Load(),
		Alerted:    sw.ctr.alerted.Load(),
		Punted:     sw.ctr.punted.Load(),
		FilterHits: sw.ctr.filterHits.Load(),
		PerRule:    per,
	}
	s.Processed = s.Permitted + s.Dropped + s.Alerted + s.Punted
	return s
}

// resetCounters zeroes all counters (not the tables).
func (sw *Switch) resetCounters() {
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	sw.ctr.permitted.Store(0)
	sw.ctr.dropped.Store(0)
	sw.ctr.alerted.Store(0)
	sw.ctr.punted.Store(0)
	sw.ctr.filterHits.Store(0)
	st := sw.state.Load()
	for i := range st.perRule {
		atomic.StoreUint64(&st.perRule[i], 0)
	}
}
