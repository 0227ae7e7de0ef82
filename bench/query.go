package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/traffic"
)

// queryMix is the read side beside the two writers: an episode is ingested
// into a tiered store until about 85% of it is cold, in v2 segments whose
// decoded size is several times the block cache, and an analyst then runs
// a fixed list of distinct, seeded queries, one at a time. The list mixes
// six classes so that a change to one read path moves the result by that
// class's share of the time:
//
//	cold_selective    indexed conjuncts + a narrow window in cold history
//	hot_selective     the same in the hot slab
//	absent            a port nothing uses: the zone maps prune everything
//	cold_window_scan  a residual no index serves, over a narrow cold window
//	count_selective   Count of an indexed conjunct over a cold window
//	count_label       Count of a label over a wide window
//
// Four fifths of the cold windows fall in the newest fifth of cold history,
// where the cache can help; the rest are uniform, where it cannot.
type queryMix struct {
	frames  []traffic.Frame
	st      *datastore.Store
	dir     string
	queries []query
}

type query struct {
	class int
	expr  string
	count bool // CountExpr rather than SelectExpr
}

const (
	qColdSelective = iota
	qHotSelective
	qAbsent
	qColdWindowScan
	qCountSelective
	qCountLabel
	numQueryClasses
)

var queryClassNames = [numQueryClasses]string{
	"cold_selective", "hot_selective", "absent", "cold_window_scan", "count_selective", "count_label",
}

// queryClassCounts is how many of the queries belong to each class. The
// counts were tuned once, on the seed commit, so that the classes' shares
// of a round's time are within five points of 40/5/1/20/17/17.
var queryClassCounts = [numQueryClasses]int{170, 60, 20, 56, 63, 30}

const (
	queryFrames     = 98304
	queryBatch      = 4096
	queryHotPackets = 24576
	querySegPackets = 8192
	queryCacheBytes = 32 << 20
	querySelectCap  = 256 // rows an analyst's Select asks for
)

func (q *queryMix) tailPct() float64 { return 99 }

func (q *queryMix) sizes() map[string]int {
	return map[string]int{
		"frames": len(q.frames), "queries": len(q.queries), "hot_packets": queryHotPackets,
		"segment_packets": querySegPackets, "cache_bytes": queryCacheBytes,
	}
}

func (q *queryMix) close() {
	q.st = nil
	if q.dir != "" {
		os.RemoveAll(q.dir)
		q.dir = ""
	}
}

// ingest streams the episode into st in Collect-sized batches.
func ingest(e *env, st *datastore.Store, frames []traffic.Frame) error {
	for lo := 0; lo < len(frames); lo += queryBatch {
		if _, err := st.AddBatch(frames[lo:min(lo+queryBatch, len(frames))], 1); err != nil {
			return err
		}
		e.clk.tick()
	}
	return nil
}

func (q *queryMix) setup(e *env) error {
	q.close()
	n := scaled(queryFrames, e.scale, queryBatch)
	plan := traffic.DefaultPlan(40)
	frames, err := generate(e, episodeSpec{
		plan: plan, flows: 120, span: time.Duration(n/queryBatch) * 500 * time.Millisecond,
		attacks: []attackSpec{{traffic.LabelDNSAmp, 800}, {traffic.LabelPortScan, 300}},
		frames:  n, campusSeed: 1300, seed: e.seed,
	})
	if err != nil {
		return err
	}
	q.frames = frames
	if q.dir, err = e.dir("query"); err != nil {
		return err
	}
	hot := uint64(scaled(queryHotPackets, e.scale, 1024))
	st := datastore.NewSharded(4)
	if err := st.EnableTiering(datastore.TierPolicy{
		Dir: q.dir, HotPackets: hot, SegmentPackets: scaled(querySegPackets, e.scale, 256), CacheBytes: queryCacheBytes,
	}); err != nil {
		return err
	}
	st.SetQueryWorkers(1)
	if err := ingest(e, st, frames); err != nil {
		return err
	}
	q.st = st
	ts := st.TierStats()
	if ts.ColdPackets == 0 || ts.ColdPackets >= uint64(n) {
		return fmt.Errorf("query store has %d of %d packets cold; it needs both tiers", ts.ColdPackets, n)
	}
	q.queries = buildQueries(e.seed, frames, int(ts.ColdPackets), e.scale)
	return nil
}

// buildQueries draws the distinct query list. Packet IDs follow ingest
// order, so the first `cold` frames are the cold ones.
func buildQueries(seed int64, frames []traffic.Frame, cold int, scale float64) []query {
	rng := rand.New(rand.NewSource(seed*1000 + 301))
	// Windows are drawn over packet indexes, not time: traffic is bursty,
	// so equal spans of time hold very different numbers of packets from
	// one seed to the next, and a query's cost follows the packets.
	us := func(i int) string { return fmt.Sprintf("%dus", frames[i].TS.Microseconds()) }
	// Queries are stratified, not drawn independently: the i-th of a
	// class's n queries takes the i-th predicate in rotation and a window
	// in the i-th of n equal strata of its range, placed inside the stratum
	// by the seed. Every seed's list then has the same make-up and covers
	// the store evenly, and only the exact windows differ; independent
	// draws made the work in a round vary by a tenth between seeds.
	window := func(lo, hi, width, i, n int) string {
		room := max(hi-lo-width, 1)
		from := lo + (i*room+rng.Intn(room))/n
		return fmt.Sprintf("ts >= %s && ts < %s", us(from), us(min(from+width, len(frames)-1)))
	}
	// coldWindow puts four queries in five in the newest fifth of cold
	// history, where the cache can help, and every fifth anywhere in it.
	coldWindow := func(width, i, n int) string {
		if i%5 == 4 {
			return window(0, cold, width, i/5, max(n/5, 1))
		}
		return window(cold-cold/5, cold, width, i-i/5, n-n/5)
	}
	selective := []string{
		"proto == udp && src.port == 53", "proto == tcp && dst.port == 443", "proto == tcp && src.port == 443",
		"dns && dns.resp", "proto == udp && dst.port == 53", "label == dns-amp", "label == port-scan",
		"proto == tcp && dst.port == 993", "proto == tcp && tcp.syn",
	}
	residual := []string{
		"len > 1200 && ttl < 100", "payload.len > 0 && payload.len < 400", "ttl > 60 && len < 200",
		"dst.ip in 10.0.0.0/8 && len > 1000", "tcp.syn && !tcp.ack", "(len >= 1400 || ttl < 40)",
	}
	labels := []string{"benign", "dns-amp", "port-scan"}
	narrow, wide := cold/40, cold/16

	var out []query
	add := func(class int, count bool, mk func(i, n int) string) {
		n := max(int(float64(queryClassCounts[class])*scale), 2)
		for i := 0; i < n; i++ {
			out = append(out, query{class: class, expr: mk(i, n), count: count})
		}
	}
	add(qColdSelective, false, func(i, n int) string { return coldWindow(narrow, i, n) + " && " + selective[i%len(selective)] })
	add(qHotSelective, false, func(i, n int) string {
		return window(cold, len(frames), narrow, i, n) + " && " + selective[i%len(selective)]
	})
	add(qAbsent, false, func(i, n int) string {
		return fmt.Sprintf("proto == udp && dst.port == %d && src.port == %d", 1+i%6, 7+i+100*rng.Intn(600))
	})
	add(qColdWindowScan, false, func(i, n int) string { return coldWindow(narrow, i, n) + " && " + residual[i%len(residual)] })
	add(qCountSelective, true, func(i, n int) string { return coldWindow(narrow*2, i, n) + " && " + selective[i%len(selective)] })
	add(qCountLabel, true, func(i, n int) string {
		return window(0, len(frames), wide, i, n) + " && label == " + labels[i%len(labels)]
	})
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// answer is what a query returned, reduced to a count and a hash of the
// packet IDs in result order.
type answer struct {
	count  int
	idHash uint64
}

func runQuery(st *datastore.Store, q query) (answer, error) {
	if q.count {
		n, err := st.CountExpr(q.expr)
		return answer{count: n}, err
	}
	rows, err := st.SelectExpr(q.expr, querySelectCap)
	if err != nil {
		return answer{}, err
	}
	d := newDigest()
	for i := range rows {
		d.u64(uint64(rows[i].ID))
	}
	return answer{count: len(rows), idHash: d.sum()}, nil
}

func (q *queryMix) round(e *env, tr *tracer) (roundResult, error) {
	res := roundResult{counts: map[string]float64{}}
	ts0 := q.st.TierStats()
	scanned0 := counter("campuslab_query_rows_scanned_total")
	matched0 := counter("campuslab_query_rows_matched_total")
	index0 := counter("campuslab_query_planner_total", "path", "index")
	scan0 := counter("campuslab_query_planner_total", "path", "scan")
	evict0 := counter("campuslab_tier_cache_evictions_total")
	fhit0 := counter("campuslab_query_filter_cache_total", "result", "hit")
	fmiss0 := counter("campuslab_query_filter_cache_total", "result", "miss")

	d := newDigest()
	for i, qu := range q.queries {
		t0 := time.Now()
		tr.begin("datastore.query_"+queryClassNames[qu.class], i)
		a, err := runQuery(q.st, qu)
		tr.end()
		dt := time.Since(t0).Seconds()
		if err != nil {
			res.failed++
			continue
		}
		res.secs += dt
		res.groups = append(res.groups, dt)
		res.ops++
		d.u64(uint64(a.count), a.idHash)
		e.clk.tick()
	}
	res.fp = d.sum()

	ts := q.st.TierStats()
	if ts.Err != nil {
		return res, fmt.Errorf("cold tier: %w", ts.Err)
	}
	index := counter("campuslab_query_planner_total", "path", "index") - index0
	scan := counter("campuslab_query_planner_total", "path", "scan") - scan0
	hits, misses := float64(ts.CacheHits-ts0.CacheHits), float64(ts.CacheMisses-ts0.CacheMisses)
	fhit := counter("campuslab_query_filter_cache_total", "result", "hit") - fhit0
	fmiss := counter("campuslab_query_filter_cache_total", "result", "miss") - fmiss0
	k := res.counts
	k["query.rows_scanned_per_matched"] = ratio(counter("campuslab_query_rows_scanned_total")-scanned0, counter("campuslab_query_rows_matched_total")-matched0)
	k["query.planner_index_frac"] = ratio(index, index+scan)
	k["query.segments_scanned"] = float64(ts.SegmentsScanned - ts0.SegmentsScanned)
	k["query.segments_pruned"] = float64(ts.SegmentsPruned - ts0.SegmentsPruned)
	k["query.cache_hit_ratio"] = ratio(hits, hits+misses)
	k["query.cache_evictions"] = counter("campuslab_tier_cache_evictions_total") - evict0
	k["query.filter_cache_hit_ratio"] = ratio(fhit, fhit+fmiss)
	k["tier.segments"] = float64(ts.Segments)
	k["cold_bytes_per_pkt"] = ratio(float64(ts.ColdBytes), float64(ts.ColdPackets))
	return res, nil
}

// layers reports each class's median latency. Every query is its own
// op-group, so the round's group times, in query order, carry the classes.
func (q *queryMix) layers(_ roundTotals, r roundResult) map[string]float64 {
	out := map[string]float64{}
	if len(r.groups) != len(q.queries) {
		return out // a query failed; the round is already counted as wrong
	}
	var byClass [numQueryClasses][]float64
	for i, qu := range q.queries {
		byClass[qu.class] = append(byClass[qu.class], r.groups[i]*1e3)
	}
	for c, name := range queryClassNames {
		out["query."+name+"_p50_ms"] = percentile(byClass[c], 50)
	}
	return out
}

func (q *queryMix) probe(*env, map[string]float64) error { return nil }

// verify answers every distinct query again on an untiered twin of the
// store with the planner forced to the serial scan, and compares counts and
// ID hashes.
func (q *queryMix) verify(e *env, _ map[string]float64) (int, error) {
	frames := q.frames
	if e.sabotage == "wrong-reference" {
		frames = frames[:len(frames)-len(frames)/8]
	}
	ref := datastore.NewSharded(4)
	ref.SetScanQuery(true)
	if err := ingest(e, ref, frames); err != nil {
		return 0, err
	}
	failed := 0
	var first string
	for _, qu := range q.queries {
		got, err := runQuery(q.st, qu)
		if err != nil {
			return failed, err
		}
		want, err := runQuery(ref, qu)
		if err != nil {
			return failed, err
		}
		if got != want {
			failed++
			if first == "" {
				first = fmt.Sprintf("%q: store says %+v, scan reference %+v", qu.expr, got, want)
			}
		}
	}
	if failed > 0 {
		return failed, fmt.Errorf("%d of %d queries disagree with the scan reference, first %s", failed, len(q.queries), first)
	}
	return 0, nil
}
