package control

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"campuslab/internal/dataplane"
	"campuslab/internal/faults"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/obs"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// LoopConfig wires a detection/mitigation control loop.
type LoopConfig struct {
	// Tier selects where inference runs.
	Tier Tier
	// TierModel overrides the default latency envelope (zero = default).
	TierModel *TierModel
	// Program is the compiled in-switch classifier. For TierDataPlane
	// its attack rules should be drops; for the other tiers alerts/punts.
	// Optional when Ensemble is set.
	Program *dataplane.Program
	// Ensemble, when set, installs a compiled whole-ensemble pipeline as
	// the switch's classification stage (TierDataPlane ensemble mode): the
	// forest/boost verdicts themselves run at data-plane latency instead
	// of only the extracted tree. It takes precedence over Program for
	// classification; an also-supplied Program stays loaded underneath.
	Ensemble *dataplane.EnsembleProgram
	// Model is the off-switch classifier (extracted tree for the control
	// plane, black-box forest for the cloud). Ignored by TierDataPlane.
	Model ml.Classifier
	// Threshold is the per-victim confidence required before mitigation
	// (the paper's "at least 90%" example).
	Threshold float64
	// Window is the confidence-aggregation window.
	Window time.Duration
	// MinEvidence is the minimum suspicious packets per window before a
	// confidence is considered meaningful.
	MinEvidence int
	// FilterScope narrows installed mitigations: protocol to block
	// toward the victim (default UDP, matching the DNS-amp task).
	FilterProto packet.IPProtocol
	// RateLimitBps, when positive, makes React install a token-bucket
	// meter (pass this many bytes/second toward the victim, drop the
	// excess) instead of a hard drop — the lower-collateral mitigation.
	RateLimitBps float64
	// Resources sizes the switch (zero = DefaultResources).
	Resources *dataplane.Resources

	// Faults injects failures into the loop's instrumented points — the
	// dataplane install path and each tier's inference — for chaos road
	// tests. nil = always healthy, at zero cost.
	Faults faults.Injector
	// Retry bounds the React install retry loop (zero value = defaults:
	// 4 attempts, 2ms base backoff doubling to 100ms, jitter seed 1).
	Retry RetryPolicy
	// Breaker parameterizes the per-tier circuit breakers (zero value =
	// defaults: trip after 5 consecutive failures, 5s cooldown).
	Breaker BreakerConfig
	// Fallbacks is the ordered degradation chain behind the primary
	// tier: when a tier's breaker is open, inference moves to the next
	// entry (data plane → control plane → cloud), paying its latency.
	Fallbacks []FallbackTier
}

// Mitigation records one react action.
type Mitigation struct {
	Victim      netip.Addr
	InstalledAt time.Duration // when the filter became effective
	DecidedAt   time.Duration // when confidence crossed the threshold
	Confidence  float64
	Evidence    int // suspicious packets that contributed
}

// LoopStats summarizes a replay through the loop.
type LoopStats struct {
	Packets     uint64
	InlineDrops uint64 // dropped by the program (dataplane tier)
	FilterDrops uint64 // dropped by installed mitigations
	Escalations uint64 // packets sent to the inference tier
	Mitigations []Mitigation
	InferMean   time.Duration
	InferMax    time.Duration
	// per ground-truth accounting (filled when labels supplied)
	AttackPackets uint64
	AttackDropped uint64
	BenignPackets uint64
	BenignDropped uint64

	// Resilience accounting — all zero in a healthy run.
	InstallRetries     uint64 // install re-attempts after transient faults
	DroppedMitigations uint64 // mitigation decisions abandoned after the retry budget
	InstallFailures    uint64 // permanent install failures (table full)
	InferFailures      uint64 // inference requests lost to tier faults
	FallbackInferences uint64 // inferences served by a degraded (non-primary) tier
	BreakerTrips       uint64 // circuit-breaker openings across all tiers
}

// DetectionRecall is the fraction of attack packets dropped.
func (s *LoopStats) DetectionRecall() float64 {
	if s.AttackPackets == 0 {
		return 0
	}
	return float64(s.AttackDropped) / float64(s.AttackPackets)
}

// CollateralRate is the fraction of benign packets dropped.
func (s *LoopStats) CollateralRate() float64 {
	if s.BenignPackets == 0 {
		return 0
	}
	return float64(s.BenignDropped) / float64(s.BenignPackets)
}

// Loop is the running control loop bound to one switch.
type Loop struct {
	cfg    LoopConfig
	sw     *dataplane.Switch
	tiers  []*tierRuntime // index 0 = primary, then the fallback chain
	retry  RetryPolicy
	jitter *rand.Rand
	stats  LoopStats
	// ctr is the loop's operational counter block — the source of truth
	// for the resilience counters; stats' mirror fields are views filled
	// at Finish.
	ctr *loopCounters

	// per-victim evidence accumulation
	windows map[netip.Addr]*victimWindow
	// verdicts in flight from the inference tier
	pending   []pendingVerdict
	mitigated map[netip.Addr]bool
	featBuf   []float64
	// verdictBuf holds FeedBatch's precomputed switch verdicts.
	verdictBuf []dataplane.Verdict
}

type victimWindow struct {
	start      time.Duration
	suspicious int
	confSum    float64
}

type pendingVerdict struct {
	readyAt time.Duration
	victim  netip.Addr
	conf    float64
	attack  bool
	// installRTT is the verdict tier's RTT: a mitigation decided from
	// this verdict becomes effective after half of it (controller→switch).
	installRTT time.Duration
}

// NewLoop validates cfg and builds the loop.
func NewLoop(cfg LoopConfig) (*Loop, error) {
	if cfg.Program == nil && cfg.Ensemble == nil {
		return nil, fmt.Errorf("control: a Program or an Ensemble is required")
	}
	if cfg.Tier != TierDataPlane && cfg.Model == nil {
		return nil, fmt.Errorf("control: %v tier requires a Model", cfg.Tier)
	}
	if cfg.Threshold <= 0 || cfg.Threshold > 1 {
		cfg.Threshold = 0.9
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.MinEvidence <= 0 {
		cfg.MinEvidence = 20
	}
	if cfg.FilterProto == 0 {
		cfg.FilterProto = packet.IPProtocolUDP
	}
	res := dataplane.DefaultResources()
	if cfg.Resources != nil {
		res = *cfg.Resources
	}
	sw := dataplane.NewSwitch(res)
	if cfg.Program != nil {
		if err := sw.Load(cfg.Program); err != nil {
			return nil, err
		}
	}
	if cfg.Ensemble != nil {
		if err := sw.LoadEnsemble(cfg.Ensemble); err != nil {
			return nil, err
		}
	}
	if cfg.Faults != nil {
		sw.SetFaultInjector(cfg.Faults)
	}
	defaults := DefaultTierModels()
	brk := cfg.Breaker.withDefaults()
	ctr := newLoopCounters()
	newTier := func(t Tier, model ml.Classifier, override *TierModel) *tierRuntime {
		tm := defaults[t]
		if override != nil {
			tm = *override
		}
		return &tierRuntime{
			tier:    t,
			model:   model,
			engine:  newInferenceEngine(tm),
			breaker: breaker{cfg: brk, ctr: ctr},
			opName:  faults.OpInfer(t.String()),
		}
	}
	tiers := []*tierRuntime{newTier(cfg.Tier, cfg.Model, cfg.TierModel)}
	for _, fb := range cfg.Fallbacks {
		if fb.Tier == TierDataPlane {
			return nil, fmt.Errorf("control: the data plane cannot serve as a fallback inference tier")
		}
		if fb.Model == nil {
			return nil, fmt.Errorf("control: fallback %v tier requires a Model", fb.Tier)
		}
		tiers = append(tiers, newTier(fb.Tier, fb.Model, fb.TierModel))
	}
	retry := cfg.Retry.withDefaults()
	return &Loop{
		cfg:       cfg,
		sw:        sw,
		tiers:     tiers,
		retry:     retry,
		ctr:       ctr,
		jitter:    rand.New(rand.NewSource(retry.Seed)),
		windows:   make(map[netip.Addr]*victimWindow),
		mitigated: make(map[netip.Addr]bool),
		featBuf:   make([]float64, len(features.PacketSchema)),
	}, nil
}

// Switch exposes the underlying switch (telemetry, tests).
func (l *Loop) Switch() *dataplane.Switch { return l.sw }

// BenignDroppedSoFar exposes the live benign-collateral counter for
// watchdogs (canary deployments) that must act mid-replay.
func (l *Loop) BenignDroppedSoFar() uint64 { return l.stats.BenignDropped }

// feed runs one labeled frame through the loop at its timestamp and
// reports whether the packet survived (was not dropped).
func (l *Loop) feed(f *traffic.Frame, s *packet.Summary) bool {
	l.drainPending(f.TS)
	v := l.sw.ProcessAt(f.TS, s)
	return l.consume(f, s, v)
}

// FeedBatch runs a batch of labeled frames (with pre-parsed summaries)
// through the loop, filling keep[i] with whether frame i survived.
// Semantically identical to calling feed per frame in order; the win is
// that the switch sense stage is precomputed for the whole batch from
// one state snapshot, and its verdicts are committed to the switch
// counters once, at the end of the batch (Switch.Stats lags by at most
// that batch). Because a mitigation installed while draining pending
// verdicts must affect the packets behind it, the precompute is abandoned
// the moment the switch state generation moves (or when stateful meters
// make classification impure): the verdicts consumed so far are committed
// and the remainder of the batch falls back to the per-packet path.
func (l *Loop) FeedBatch(frames []*traffic.Frame, sums []*packet.Summary, keep []bool) {
	defer obs.Default.StartSpan("fastloop").End()
	n := len(frames)
	if cap(l.verdictBuf) < n {
		l.verdictBuf = make([]dataplane.Verdict, n)
	}
	vs := l.verdictBuf[:n]
	gen, pre := l.sw.ClassifyBatch(sums, vs)
	for i := 0; i < n; i++ {
		f, s := frames[i], sums[i]
		l.drainPending(f.TS)
		if pre && l.sw.StateGen() != gen {
			l.sw.CommitBatch(vs[:i])
			pre = false
		}
		v := vs[i]
		if !pre {
			v = l.sw.ProcessAt(f.TS, s)
		}
		keep[i] = l.consume(f, s, v)
	}
	if pre {
		l.sw.CommitBatch(vs)
	}
}

// consume applies the loop logic — ground-truth accounting, data-plane
// fault handling, escalation, drop bookkeeping — to one switch verdict.
func (l *Loop) consume(f *traffic.Frame, s *packet.Summary, v dataplane.Verdict) bool {
	l.stats.Packets++
	isAttack := f.Label != traffic.LabelBenign
	if isAttack {
		l.stats.AttackPackets++
	} else {
		l.stats.BenignPackets++
	}

	// Data-plane-tier inference faults: an inline classification drop is
	// the data plane's "Infer" verdict. When that verdict is lost (an
	// injected fault) or untrusted (the data-plane breaker is open), the
	// packet is not dropped; with a fallback chain configured it is
	// escalated to the next tier instead — fail-open with degradation,
	// exactly what a broken classification stage forces on an operator.
	if l.cfg.Tier == TierDataPlane && v.Action == dataplane.ActionDrop && !v.FilterHit {
		dp := l.tiers[0]
		lost := false
		if !dp.breaker.allow(f.TS) {
			lost = true
		} else if l.cfg.Faults != nil {
			if err := l.cfg.Faults.Fail(dp.opName); err != nil {
				dp.breaker.failure(f.TS)
				l.ctr.inferFailures.Inc()
				lost = true
			} else {
				dp.breaker.success()
			}
		}
		if lost {
			v = dataplane.Verdict{Action: dataplane.ActionPermit, RuleIndex: v.RuleIndex}
			if len(l.tiers) > 1 {
				l.escalate(f.TS, s)
			}
		}
	}

	dropped := v.Action == dataplane.ActionDrop
	if dropped {
		if v.FilterHit {
			l.stats.FilterDrops++
		} else {
			l.stats.InlineDrops++
		}
	}

	// Escalate alerts/punts to the inference tier (detect-then-mitigate).
	if l.cfg.Tier != TierDataPlane &&
		(v.Action == dataplane.ActionAlert || v.Action == dataplane.ActionPunt) {
		l.escalate(f.TS, s)
	}

	if dropped {
		if isAttack {
			l.stats.AttackDropped++
		} else {
			l.stats.BenignDropped++
		}
		return false
	}
	return true
}

// inferTier returns the first tier able to serve an escalated inference
// at virtual time now: it must hold a model (the data-plane primary does
// not) and its breaker must admit the request. nil when the whole chain
// is down.
func (l *Loop) inferTier(now time.Duration) *tierRuntime {
	for _, tr := range l.tiers {
		if tr.model == nil {
			continue
		}
		if tr.breaker.allow(now) {
			return tr
		}
	}
	return nil
}

// escalate submits the packet to the first available inference tier and
// schedules the verdict. Injected tier faults lose the request (the
// verdict never arrives — a timeout in a real deployment) and feed that
// tier's breaker.
func (l *Loop) escalate(ts time.Duration, s *packet.Summary) {
	l.ctr.escalations.Inc()
	tr := l.inferTier(ts)
	if tr == nil {
		l.ctr.inferFailures.Inc()
		return // every tier down: the verdict is lost
	}
	if l.cfg.Faults != nil {
		if err := l.cfg.Faults.Fail(tr.opName); err != nil {
			tr.breaker.failure(ts)
			l.ctr.inferFailures.Inc()
			return
		}
		tr.breaker.success()
	}
	if tr != l.tiers[0] {
		l.ctr.fallbackInferences.Inc()
	}
	readyAt := tr.engine.submit(ts)
	features.PacketVector(s, l.featBuf)
	proba := tr.model.Proba(l.featBuf)
	attackConf := 0.0
	for c := 1; c < len(proba); c++ {
		attackConf += proba[c]
	}
	l.pending = append(l.pending, pendingVerdict{
		readyAt:    readyAt,
		victim:     s.Tuple.DstIP,
		conf:       attackConf,
		attack:     attackConf >= 0.5,
		installRTT: tr.engine.model.RTT,
	})
}

// drainPending applies verdicts whose latency has elapsed, accumulating
// evidence and installing mitigations when the threshold is crossed.
func (l *Loop) drainPending(now time.Duration) {
	if len(l.pending) == 0 {
		return
	}
	sort.SliceStable(l.pending, func(i, j int) bool { return l.pending[i].readyAt < l.pending[j].readyAt })
	keep := l.pending[:0]
	for _, pv := range l.pending {
		if pv.readyAt > now {
			keep = append(keep, pv)
			continue
		}
		l.applyVerdict(pv)
	}
	l.pending = keep
}

func (l *Loop) applyVerdict(pv pendingVerdict) {
	if !pv.attack || l.mitigated[pv.victim] {
		return
	}
	w := l.windows[pv.victim]
	if w == nil || pv.readyAt-w.start > l.cfg.Window {
		w = &victimWindow{start: pv.readyAt}
		l.windows[pv.victim] = w
	}
	w.suspicious++
	w.confSum += pv.conf
	if w.suspicious < l.cfg.MinEvidence {
		return
	}
	conf := w.confSum / float64(w.suspicious)
	if conf < l.cfg.Threshold {
		return
	}
	// React: install the mitigation; effective after one controller RTT,
	// plus backoff for every transient install failure retried.
	installAt, ok := l.installMitigation(pv.victim, pv.readyAt+pv.installRTT/2)
	if !ok {
		return // mitigation impossible right now: keep accumulating
	}
	l.mitigated[pv.victim] = true
	l.ctr.mitigations.Inc()
	l.stats.Mitigations = append(l.stats.Mitigations, Mitigation{
		Victim:      pv.victim,
		DecidedAt:   pv.readyAt,
		InstalledAt: installAt,
		Confidence:  conf,
		Evidence:    w.suspicious,
	})
}

// installMitigation drives the React install with the retry policy:
// transient failures back off exponentially (with deterministic jitter)
// in virtual time and retry up to the attempt budget; permanent failures
// (table full) abort immediately. Returns the
// effective install time and whether the install landed.
func (l *Loop) installMitigation(victim netip.Addr, installAt time.Duration) (time.Duration, bool) {
	key := dataplane.FilterKey{DstIP: victim, Proto: l.cfg.FilterProto}
	backoff := l.retry.Base
	for attempt := 1; ; attempt++ {
		var err error
		if l.cfg.RateLimitBps > 0 {
			err = l.sw.InstallRateLimit(key, l.cfg.RateLimitBps, 4*l.cfg.RateLimitBps)
		} else {
			err = l.sw.InstallFilter(key, dataplane.ActionDrop)
		}
		if err == nil {
			return installAt, true
		}
		if !faults.IsTransient(err) {
			l.ctr.installFailures.Inc()
			return 0, false
		}
		if attempt >= l.retry.MaxAttempts {
			l.ctr.droppedMitigations.Inc()
			return 0, false
		}
		l.ctr.installRetries.Inc()
		var delay time.Duration
		delay, backoff = l.retry.Backoff(backoff, l.jitter)
		installAt += delay
	}
}

// Finish flushes in-flight verdicts and returns final statistics. The
// resilience fields of LoopStats are views over the loop's registry
// counter block, filled here.
func (l *Loop) Finish() LoopStats {
	l.drainPending(1 << 62)
	var requests, trips uint64
	var total, max time.Duration
	for _, tr := range l.tiers {
		n, _, mx := tr.engine.latencyStats()
		requests += n
		total += tr.engine.totalLat
		if mx > max {
			max = mx
		}
		trips += tr.breaker.trips
	}
	l.stats.Escalations = l.ctr.escalations.Value()
	l.stats.InstallRetries = l.ctr.installRetries.Value()
	l.stats.DroppedMitigations = l.ctr.droppedMitigations.Value()
	l.stats.InstallFailures = l.ctr.installFailures.Value()
	l.stats.InferFailures = l.ctr.inferFailures.Value()
	l.stats.FallbackInferences = l.ctr.fallbackInferences.Value()
	l.stats.BreakerTrips = l.ctr.breakerOpens.Value()
	if trips != l.stats.BreakerTrips {
		// Structural audit: per-breaker trip counts and the loop block
		// must agree; disagreement means an uninstrumented trip site.
		panic("control: breaker trip accounting diverged")
	}
	if requests > 0 {
		l.stats.InferMean = total / time.Duration(requests)
		l.stats.InferMax = max
	}
	return l.stats
}

// ReplayBatch is how many parsed frames Replay accumulates before one
// FeedBatch call — large enough to amortize the switch dispatch, small
// enough to keep the working set in cache.
const ReplayBatch = 256

// Replay drives a whole generator through the loop, parsing frames once
// and feeding them in batches of ReplayBatch.
func (l *Loop) Replay(gen traffic.Generator) (LoopStats, error) {
	fp := packet.NewFlowParser()
	var (
		frames [ReplayBatch]traffic.Frame
		sums   [ReplayBatch]packet.Summary
		fptrs  [ReplayBatch]*traffic.Frame
		sptrs  [ReplayBatch]*packet.Summary
		keep   [ReplayBatch]bool
	)
	for i := range fptrs {
		fptrs[i], sptrs[i] = &frames[i], &sums[i]
	}
	n := 0
	for gen.Next(&frames[n]) {
		if err := fp.Parse(frames[n].Data, &sums[n]); err != nil {
			continue // non-IP or malformed: not the loop's problem
		}
		n++
		if n == ReplayBatch {
			l.FeedBatch(fptrs[:n], sptrs[:n], keep[:n])
			n = 0
		}
	}
	if n > 0 {
		l.FeedBatch(fptrs[:n], sptrs[:n], keep[:n])
	}
	return l.Finish(), nil
}
