package dataplane

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
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
	// rule program as the classification stage (filters still run first).
	ens *ensembleState

	table  map[FilterKey]ActionKind
	shapes uint8
}

// lookup probes one filter key.
func (st *pipelineState) lookup(k FilterKey) (Verdict, bool) {
	act, ok := st.table[k]
	if !ok {
		return Verdict{}, false
	}
	return Verdict{Action: act, RuleIndex: -1, FilterHit: true}, true
}

// filter is the first stage for one packet: runtime filters (mitigations
// beat classification), probed through the installed key shapes from most
// to least specific. A miss returns the zero Verdict, whose FilterHit is
// false.
func (st *pipelineState) filter(s *packet.Summary) Verdict {
	t := &s.Tuple
	if st.shapes&shapeFull != 0 {
		if v, ok := st.lookup(FilterKey{DstIP: t.DstIP, SrcIP: t.SrcIP, DstPort: t.DstPort, Proto: t.Proto}); ok {
			return v
		}
	}
	if st.shapes&shapeDstPortProt != 0 {
		if v, ok := st.lookup(FilterKey{DstIP: t.DstIP, DstPort: t.DstPort, Proto: t.Proto}); ok {
			return v
		}
	}
	if st.shapes&shapeDstProt != 0 {
		if v, ok := st.lookup(FilterKey{DstIP: t.DstIP, Proto: t.Proto}); ok {
			return v
		}
	}
	if st.shapes&shapeDst != 0 {
		if v, ok := st.lookup(FilterKey{DstIP: t.DstIP}); ok {
			return v
		}
	}
	if st.shapes&shapeSrc != 0 {
		if v, ok := st.lookup(FilterKey{SrcIP: t.SrcIP}); ok {
			return v
		}
	}
	return Verdict{}
}

// batchIn is one batch as an entry point received it: summaries by value
// (ProcessBatchAt) or by pointer (ClassifyBatch, ProcessAt).
type batchIn struct {
	vals []packet.Summary
	ptrs []*packet.Summary
}

func (b *batchIn) len() int {
	if b.ptrs != nil {
		return len(b.ptrs)
	}
	return len(b.vals)
}

func (b *batchIn) at(i int) *packet.Summary {
	if b.ptrs != nil {
		return b.ptrs[i]
	}
	return &b.vals[i]
}

// memoProbe is how many ensemble lookups a batch's memo gets to prove
// itself: a batch that hit fewer than memoProbe/memoMinHitShare of them
// walks the rest of its packets without it. An empty memo misses once per
// new code word before it starts to hit — an episode batch opens with
// about 22 of them, a batch of uniformly random headers with about 25 in
// its first 32 lookups and still hits 62 % over the batch — so the
// verdict is read from the hit count, never from a run of misses, and
// only a batch whose code words barely repeat loses its memo.
const (
	memoProbe       = 32
	memoMinHitShare = 8
)

// classify is the switch's one batch evaluator. It runs the stages in
// order over the whole batch, writing out[i] for packet i: filters per
// packet (the stage is skipped when no key shape is installed), then the program stage over the packets they left
// undecided. The program stage is pure: for an ensemble, field vector,
// code word, memo and walk; else the compiled rule DAG, the rule scan, or
// the permit default. m is the batch's ensemble memo, nil when the stage
// has none; counters are the caller's to tally.
func (st *pipelineState) classify(in *batchIn, out []Verdict, m *ensMemo) {
	n := in.len()
	filtered := st.shapes != 0
	if filtered {
		for i := 0; i < n; i++ {
			out[i] = st.filter(in.at(i))
		}
	}
	var fv fieldVector
	switch {
	case st.ens != nil:
		es, use := st.ens, m
		for i := 0; i < n; i++ {
			if filtered && out[i].FilterHit {
				continue
			}
			if use != nil && use.hits+use.misses == memoProbe && use.hits < memoProbe/memoMinHitShare {
				use = nil
			}
			if use == nil && m != nil {
				m.bypassed++
			}
			fv.fromSummary(in.at(i))
			out[i] = es.eval(&fv, use)
		}
	case st.dag != nil:
		for i := 0; i < n; i++ {
			if filtered && out[i].FilterHit {
				continue
			}
			fv.fromSummary(in.at(i))
			out[i] = st.dag.eval(&fv)
		}
	case st.prog != nil:
		for i := 0; i < n; i++ {
			if filtered && out[i].FilterHit {
				continue
			}
			fv.fromSummary(in.at(i))
			out[i] = st.prog.scan(&fv)
		}
	default:
		for i := 0; i < n; i++ {
			if !filtered || !out[i].FilterHit {
				out[i] = Verdict{Action: ActionPermit, RuleIndex: -1}
			}
		}
	}
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
	sw.state.Store(&pipelineState{table: map[FilterKey]ActionKind{}})
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
	next.table = make(map[FilterKey]ActionKind, len(cur.table)+1)
	for k, act := range cur.table {
		next.table[k] = act
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
	if _, exists := cur.table[key]; !exists && len(cur.table) >= sw.res.ExactEntries {
		obsInstallErr.Inc()
		return fmt.Errorf("%w (%d entries)", errTableFull, sw.res.ExactEntries)
	}
	sw.mutate(func(next *pipelineState) { next.table[key] = action })
	obsInstallOK.Inc()
	return nil
}

// removeFilter deletes a filter entry, reporting whether it existed.
func (sw *Switch) removeFilter(key FilterKey) bool {
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	if _, ok := sw.state.Load().table[key]; !ok {
		return false
	}
	sw.mutate(func(next *pipelineState) { delete(next.table, key) })
	obsRemoves.Inc()
	return true
}

// filterCount returns the number of installed filters.
func (sw *Switch) filterCount() int {
	return len(sw.state.Load().table)
}

// ProcessAt runs one packet summary through the pipeline — a batch of
// one: filters, then the program stage, then the counters. No stage reads
// the packet's time ts. Lock-free and allocation-free: one atomic state
// load plus atomic counter updates. It never consults an ensemble memo.
func (sw *Switch) ProcessAt(ts time.Duration, s *packet.Summary) Verdict {
	st := sw.state.Load()
	ptrs := [1]*packet.Summary{s}
	var out [1]Verdict
	st.classify(&batchIn{ptrs: ptrs[:]}, out[:], nil)
	sw.tally(st, out[:])
	return out[0]
}

// ProcessBatchAt runs a batch, appending verdicts to out (pass out[:0] to
// reuse a buffer). No stage reads the per-packet times ts (nil is fine).
// The state is loaded once for the whole batch, so a concurrent install
// becomes visible at the next batch; filters are probed per packet and
// the counters are tallied once at the end.
func (sw *Switch) ProcessBatchAt(ts []time.Duration, sums []packet.Summary, out []Verdict) []Verdict {
	st := sw.state.Load()
	var memo *ensMemo
	if st.ens.memoizes() {
		memo = new(ensMemo) // does not escape: the caller's stack, this batch
	}
	base := len(out)
	out = slices.Grow(out, len(sums))[:base+len(sums)]
	st.classify(&batchIn{vals: sums}, out[base:], memo)
	sw.tally(st, out[base:])
	countBatch(st, len(sums), memo)
	return out
}

// ClassifyBatch precomputes verdicts for a batch without recording
// counters, filling out[i] per summary, and returns the state generation
// they were computed under. The generation is read before the state, and
// publish stores the state before it bumps the generation, so the state
// is never older than the generation returned: a StateGen that has moved
// on since is all a caller needs to check. The control loop uses this to
// batch the sense stage, and hands the verdicts it consumed to
// CommitBatch: once at the end of the batch, or before it re-evaluates
// the rest one by one after a mid-batch install (detected via StateGen).
func (sw *Switch) ClassifyBatch(sums []*packet.Summary, out []Verdict) uint64 {
	gen := sw.gen.Load()
	st := sw.state.Load()
	var memo *ensMemo
	if st.ens.memoizes() {
		memo = new(ensMemo)
	}
	st.classify(&batchIn{ptrs: sums}, out[:len(sums)], memo)
	countBatch(st, len(sums), memo)
	return gen
}

// CommitBatch records verdicts previously computed by ClassifyBatch into
// the switch counters, one atomic add per counter that moved. Callers must
// have checked StateGen still matched the ClassifyBatch generation when
// they consumed each verdict.
func (sw *Switch) CommitBatch(vs []Verdict) {
	sw.tally(sw.state.Load(), vs)
}

// tally records a batch of verdicts: exactly one action counter per
// verdict plus the filter-hit or per-rule attribution. The action and
// filter-hit totals accumulate locally and flush as one atomic add per
// counter; only per-rule attribution is per packet. The processed total
// is not a separate counter — it is the sum of the four action counters,
// which makes the "every verdict counted exactly once" invariant
// structural.
func (sw *Switch) tally(st *pipelineState, vs []Verdict) {
	var acts [4]uint64
	var filterHits uint64
	for i := range vs {
		v := &vs[i]
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
