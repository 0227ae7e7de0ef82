package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"campuslab/internal/capture"
	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/privacy"
	"campuslab/internal/traffic"
)

// e1Pipeline measures the data-source half of Figure 1 end to end:
// generate → anonymize → store → featurize, reporting stage throughputs in
// packets/second of wall-clock work.
func e1Pipeline() (*Table, error) {
	fx := newFixture()
	frames := traffic.Collect(fx.trainingScenario(), 0)
	n := len(frames)

	t := &Table{
		ID:      "E1",
		Title:   "Figure 1 data-source pipeline, per-stage wall-clock throughput",
		Columns: []string{"stage", "packets", "wall_time", "pkts_per_sec"},
	}
	row := func(stage string, dur time.Duration) {
		pps := float64(n) / dur.Seconds()
		t.addRow(stage, fmt.Sprintf("%d", n), fmtDur(dur), fmt.Sprintf("%.0f", pps))
	}

	enf, err := privacy.NewEnforcer(privacy.Policy{Scope: privacy.AnonAll}, []byte("e1-key"))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	anon := make([]traffic.Frame, n)
	for i := range frames {
		out, err := enf.Apply(frames[i].Data)
		if err != nil {
			out = frames[i].Data
		}
		anon[i] = frames[i]
		anon[i].Data = out
	}
	row("anonymize", time.Since(start))

	st := datastore.New()
	start = time.Now()
	st.AddBatch(anon, workers())
	row("store+index", time.Since(start))

	start = time.Now()
	ds := features.FromPackets(st, 1.0)
	row("featurize", time.Since(start))

	start = time.Now()
	_ = features.FromFlowsWorkers(st, fx.plan.CampusPrefix, workers())
	row("flow-features", time.Since(start))

	if ds.Len() == 0 {
		return nil, fmt.Errorf("E1: empty dataset")
	}
	t.Notes = append(t.Notes,
		"expected shape: the two featurize stages clear campus line rate (~1.5 Mpps at 10 Gbps of 800B packets) on one core; store+index (~1.2 Mpps) reaches about four fifths of it and anonymize (~0.65 Mpps, a per-frame copy and parse — the address cache is a small part) under half per core, so a 10 Gbps uplink still needs two collection cores for those stages; the store, not the pipeline, is the retention bottleneck (see E7)")
	return t, nil
}

// e3CaptureRate sweeps offered load against capture capacity: the §5 claim
// that lossless capture at 10-20 Gbps is practical, and that loss appears
// when offered load exceeds the appliance envelope.
func e3CaptureRate() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "lossless capture vs offered load (120ns/pkt + 0.15ns/B per core, 800B frames)",
		Columns: []string{"offered_gbps", "consumers", "ring", "captured", "dropped", "loss"},
	}
	for _, tc := range []struct {
		gbps      float64
		consumers int
		ring      int
	}{
		{10, 1, 4096},
		{20, 1, 4096},
		{40, 1, 4096},
		{40, 2, 4096},
		{100, 2, 4096},
		{100, 4, 4096},
		{100, 8, 4096},
	} {
		gen := capture.NewConstantRate(tc.gbps, 800, 20*time.Millisecond)
		res, err := capture.RunLoadModel(gen, capture.LoadModelConfig{
			RingSize:         tc.ring,
			ServicePerPacket: 120 * time.Nanosecond,
			ServicePerKB:     154 * time.Nanosecond, // ~0.15ns per byte
			Consumers:        tc.consumers,
		})
		if err != nil {
			return nil, err
		}
		t.addRow(
			fmt.Sprintf("%.0f", tc.gbps),
			fmt.Sprintf("%d", tc.consumers),
			fmt.Sprintf("%d", tc.ring),
			fmt.Sprintf("%d", res.Captured),
			fmt.Sprintf("%d", res.Dropped),
			pct(res.LossRate()),
		)
	}
	t.Notes = append(t.Notes,
		"expected shape: lossless through 10-20 Gbps on one core (the paper's campus uplink range); 100 Gbps needs parallel capture cores, matching the commercial appliance's scale-out design")
	return t, nil
}

// e7StoreRetention measures store volume and query latency, projecting the
// §5 sizing claim (10 Gbps upstream, a week of retention).
func e7StoreRetention() (*Table, error) {
	fx := newFixture()
	st := datastore.New()
	var f traffic.Frame
	gen := fx.trainingScenario()
	for gen.Next(&f) {
		st.IngestFrame(&f)
	}
	stats := st.Stats()

	t := &Table{
		ID:      "E7",
		Title:   "data store volume, retention projection and query latency",
		Columns: []string{"metric", "value"},
	}
	t.addRow("packets stored", fmt.Sprintf("%d", stats.Packets))
	t.addRow("flows indexed", fmt.Sprintf("%d", stats.Flows))
	t.addRow("raw bytes", fmtBytes(stats.DataBytes))
	t.addRow("index overhead", fmtBytes(stats.IndexBytes))
	t.addRow("index/data ratio", pct(float64(stats.IndexBytes)/float64(stats.DataBytes)))
	t.addRow("accrual (scenario)", fmt.Sprintf("%s/s", fmtBytes(uint64(stats.BytesPerSecond()))))
	// Project the paper's sizing: a 10 Gbps uplink at 35% mean utilization.
	const uplinkBps = 10e9 * 0.35 / 8
	overhead := 1 + float64(stats.IndexBytes)/float64(stats.DataBytes)
	day := uint64(uplinkBps * 86400 * overhead)
	t.addRow("10Gbps@35% 1 day", fmtBytes(day))
	t.addRow("10Gbps@35% 1 week", fmtBytes(day*7))

	for _, expr := range []string{
		"proto == udp && dst.port == 53",
		"dns && dns.qtype == ANY",
		"ts >= 1s && ts < 2s && udp",
		"src.ip in 10.0.0.0/8 && len > 1000",
	} {
		fl, err := datastore.ParseFilterCached(expr)
		if err != nil {
			return nil, err
		}
		path := "scan"
		if fl.Indexable() {
			path = "index"
		}
		start := time.Now()
		matches := st.Select(fl, 0)
		t.addRow(fmt.Sprintf("query %q", expr),
			fmt.Sprintf("%d hits in %s (%s path)", len(matches), fmtDur(time.Since(start)), path))
	}
	t.Notes = append(t.Notes,
		"expected shape: storage grows linearly with retention; a week at campus scale lands in the hundreds-of-TB range the paper prices at 'a few $100K'; index-path queries return in tens of microseconds, scan-path in milliseconds")
	return t, nil
}

// e8Anonymization measures Crypto-PAn cost and verifies its properties on
// the live address population.
func e8Anonymization() (*Table, error) {
	anon, err := privacy.NewAnonymizer([]byte("e8-key"))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E8",
		Title:   "prefix-preserving anonymization: cost and properties",
		Columns: []string{"metric", "value"},
	}
	// Cold path: distinct addresses.
	const nCold = 20000
	start := time.Now()
	for i := 0; i < nCold; i++ {
		anon.Anonymize(netip.AddrFrom4([4]byte{10, byte(i >> 12), byte(i >> 4), byte(i)}))
	}
	cold := time.Since(start) / nCold
	t.addRow("cold anonymize (cache miss)", fmtDur(cold))
	// Warm path.
	addr := netip.MustParseAddr("10.1.2.3")
	anon.Anonymize(addr)
	const nWarm = 2_000_000
	start = time.Now()
	for i := 0; i < nWarm; i++ {
		anon.Anonymize(addr)
	}
	t.addRow("warm anonymize (cache hit)", fmtDur(time.Since(start)/nWarm))

	// Property checks over the campus population.
	plan := traffic.DefaultPlan(40)
	violations := 0
	prev := plan.Host(0)
	prevA := anon.Anonymize(prev)
	for i := 1; i < plan.TotalHosts(); i++ {
		cur := plan.Host(i)
		curA := anon.Anonymize(cur)
		if privacy.CommonPrefixLen(prev, cur) != privacy.CommonPrefixLen(prevA, curA) {
			violations++
		}
		prev, prevA = cur, curA
	}
	t.addRow("prefix violations (320 host pairs)", fmt.Sprintf("%d", violations))
	if violations > 0 {
		return nil, fmt.Errorf("E8: prefix preservation violated %d times", violations)
	}

	// Full enforcement path on real frames.
	enf, err := privacy.NewEnforcer(privacy.Policy{Scope: privacy.AnonAll, Payload: privacy.PayloadStrip}, []byte("e8-key"))
	if err != nil {
		return nil, err
	}
	fx := newFixture()
	frames := traffic.Collect(fx.trainingScenario(), 20000)
	start = time.Now()
	for i := range frames {
		if _, err := enf.Apply(frames[i].Data); err != nil {
			return nil, err
		}
	}
	perPkt := time.Since(start) / time.Duration(len(frames))
	t.addRow("full policy enforcement per packet", fmtDur(perPkt))
	_, in, out := enf.Stats()
	t.addRow("stored-byte reduction (strip policy)", pct(1-float64(out)/float64(in)))
	t.Notes = append(t.Notes,
		"expected shape: warm-path cost is a map lookup (tens of ns) so anonymization never gates 10-20 Gbps collection; prefix preservation holds exactly")
	return t, nil
}
