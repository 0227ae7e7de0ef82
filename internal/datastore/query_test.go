package datastore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"campuslab/internal/capture"
	"campuslab/internal/traffic"
)

// queryExprs is the expression mix every equivalence surface in this file
// is checked against: pure-index plans, index+residual plans, ts-bounded
// plans, and plans that must fall back to a scan.
var queryExprs = []string{
	"proto == udp && dst.port == 53",
	"proto == tcp",
	"dst.port == 53",
	"udp && dns",
	"dns && dns.qtype == ANY",
	"ts >= 1s && ts < 2s && udp",
	"ts > 500ms && proto == udp && dst.port == 53",
	"label == dns-amp",
	"label != benign",
	"proto == udp || tcp.syn",
	"!(dns) && len > 100",
	"len > 1000",
	"src.ip in 10.0.0.0/8 && proto == udp",
	"proto == 255",
	"dst.port == 70000",
	"link == 0",
	"icmp",
}

// selectBoth runs one query through the planner and the serial scan
// reference and fails the test unless the results are byte-identical.
func selectBoth(t *testing.T, st *Store, expr string, limit int) []StoredPacket {
	t.Helper()
	f := MustFilter(expr)
	st.SetScanQuery(true)
	want := st.Select(f, limit)
	wantN := st.Count(f)
	st.SetScanQuery(false)
	got := st.Select(f, limit)
	gotN := st.Count(f)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Select(%q, %d): planner diverged from scan reference (want %d pkts, got %d)",
			expr, limit, len(want), len(got))
	}
	if wantN != gotN {
		t.Fatalf("Count(%q): planner %d != reference %d", expr, gotN, wantN)
	}
	return got
}

func TestPlannerExtractsIndexableConjuncts(t *testing.T) {
	cases := []struct {
		expr      string
		indexable bool
		keys      int
		residual  bool
	}{
		{"proto == udp && dst.port == 53", true, 2, false},
		{"proto == udp && dst.port == 53 && len > 100", true, 2, true},
		{"ts >= 1s && proto == udp", true, 1, false}, // ts bound is the window, not the residual
		{"ts != 1s && proto == udp", true, 1, true},  // not an interval: stays residual
		{"dns && dns.resp && udp", true, 3, false},
		{"label == dns-amp", true, 1, false},
		{"link == 3", true, 1, false},
		{"proto != udp", false, 0, false}, // inequality: not indexable
		{"dst.port >= 53", false, 0, false},
		{"proto == udp || dns", false, 0, false}, // top-level OR is opaque
		{"!(proto == udp)", false, 0, false},
		{"len > 100", false, 0, false},
		{"tcp.syn", false, 0, false}, // TCP flag bits have no posting list
	}
	for _, c := range cases {
		f := MustFilter(c.expr)
		if f.Indexable() != c.indexable {
			t.Errorf("%q: indexable = %v, want %v", c.expr, f.Indexable(), c.indexable)
		}
		if len(f.plan.keys) != c.keys {
			t.Errorf("%q: %d index keys, want %d", c.expr, len(f.plan.keys), c.keys)
		}
		if (f.plan.residual != nil) != c.residual {
			t.Errorf("%q: residual = %v, want %v", c.expr, f.plan.residual != nil, c.residual)
		}
	}
}

func TestPlannerMatchesScanReference(t *testing.T) {
	st := fillStore(t)
	hits := 0
	for _, expr := range queryExprs {
		for _, limit := range []int{0, 1, 7} {
			if len(selectBoth(t, st, expr, limit)) > 0 {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no expression matched anything — scenario not exercised")
	}
	// The selective DNS query must actually have taken the index path.
	before := obsQueryPlannerIndex.Value()
	st.Select(MustFilter("proto == udp && dst.port == 53"), 0)
	if obsQueryPlannerIndex.Value() != before+1 {
		t.Fatal("selective query did not take the planner's index path")
	}
}

func TestPlannerEquivalenceAcrossShardsAndWorkers(t *testing.T) {
	frames := equivFrames(t)
	shardCases := []int{1, 4, 16}
	if raceEnabled { // the race gates cover concurrency; one shard count is the budget here
		shardCases = []int{4}
	}
	for _, shards := range shardCases {
		st := NewSharded(shards)
		st.AddBatch(frames, 4)
		for _, workers := range []int{1, 4} {
			st.SetQueryWorkers(workers)
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			for _, expr := range queryExprs {
				selectBoth(t, st, expr, 0)
				selectBoth(t, st, expr, 5)
			}
			// Cross-config: results must also agree across configurations.
			got := st.Select(MustFilter("proto == udp && dst.port == 53"), 0)
			if len(got) == 0 {
				t.Fatalf("%s: selective query found nothing", name)
			}
		}
	}
}

func TestQueryAfterEviction(t *testing.T) {
	st := fillStore(t)
	total := int(st.Stats().Packets)
	evicted := st.EvictBefore(2 * time.Second)
	if evicted == 0 || evicted == total {
		t.Fatalf("eviction did not split the store: %d of %d", evicted, total)
	}
	for _, expr := range queryExprs {
		selectBoth(t, st, expr, 0)
	}
	// The index must not resurrect evicted packets.
	for _, sp := range selectBoth(t, st, "proto == udp && dst.port == 53", 0) {
		if sp.TS < 2*time.Second {
			t.Fatalf("evicted packet %d (ts %v) still visible via index", sp.ID, sp.TS)
		}
	}
}

func TestSnapshotPreservesQueryResults(t *testing.T) {
	st, loaded := roundTrip(t, func(st *Store) {
		if _, err := st.AddBatch(fillFrames(t), 0); err != nil {
			t.Fatal(err)
		}
	})
	for _, expr := range queryExprs {
		f := MustFilter(expr)
		want := st.Select(f, 0)
		got := loaded.Select(f, 0)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Select(%q) differs after checkpoint→recover: %d vs %d packets", expr, len(want), len(got))
		}
		// And the rebuilt indexes must agree with the recovered store's own
		// scan reference, proving they were reconstructed, not inherited.
		selectBoth(t, loaded, expr, 0)
	}
}

func TestAddRecordsIndexesLinks(t *testing.T) {
	frames := equivFrames(t)
	recs := make([]capture.Record, len(frames))
	for i := range frames {
		recs[i] = capture.Record{TS: frames[i].TS, Link: uint16(1 + i%3), Data: frames[i].Data}
	}
	st := NewSharded(4)
	batch, links := make([]traffic.Frame, len(recs)), make([]uint16, len(recs))
	for i := range recs {
		batch[i], links[i] = traffic.Frame{TS: recs[i].TS, Data: recs[i].Data}, recs[i].Link
	}
	st.AddBatchLinks(batch, links, 2)
	n := 0
	for _, expr := range []string{"link == 1", "link == 2", "link == 3"} {
		got := selectBoth(t, st, expr, 0)
		n += len(got)
		for i := range got {
			if fmt.Sprintf("link == %d", got[i].Link) != expr {
				t.Fatalf("%q returned packet with link %d", expr, got[i].Link)
			}
		}
	}
	if n != len(recs) {
		t.Fatalf("link queries cover %d of %d records", n, len(recs))
	}
}

func TestFilterCacheSharesCompiledFilters(t *testing.T) {
	const expr = "proto == udp && dst.port == 4053"
	a, err := ParseFilterCached(expr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseFilterCached(expr)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache returned distinct compiled filters for one expression")
	}
	if _, err := ParseFilterCached("proto =="); err == nil {
		t.Fatal("bad expression did not error through the cache")
	}
	// Errors are not cached: the same bad expression errors again.
	if _, err := ParseFilterCached("proto =="); err == nil {
		t.Fatal("bad expression cached as success")
	}
	// SelectExpr and CountExpr ride the same cache.
	st := fillStore(t)
	pkts, err := st.SelectExpr("dns && dns.qtype == ANY", 0)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := st.CountExpr("dns && dns.qtype == ANY")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != cnt {
		t.Fatalf("SelectExpr found %d, CountExpr %d", len(pkts), cnt)
	}
}

func TestLabelCountsParallelDeterminism(t *testing.T) {
	st := fillStore(t)
	st.SetQueryWorkers(1)
	serial := st.LabelCounts()
	st.SetQueryWorkers(4)
	par := st.LabelCounts()
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("LabelCounts differ: %v vs %v", serial, par)
	}
	if serial[traffic.LabelDNSAmp] == 0 {
		t.Fatal("scenario lost its attack flows")
	}
}

// TestConcurrentIngestAndQuery exercises the planner and index state under
// the race detector: writers append batches while readers run indexed and
// scanned queries plus flow listings.
func TestConcurrentIngestAndQuery(t *testing.T) {
	frames := equivFrames(t)
	st := NewSharded(8)
	st.AddBatch(frames[:len(frames)/2], 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := MustFilter(queryExprs[0])
			g := MustFilter("len > 100")
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Select(f, 0)
				st.Count(g)
				st.Flows()
				st.LabelCounts()
			}
		}()
	}
	rest := frames[len(frames)/2:]
	for lo := 0; lo < len(rest); lo += 500 {
		hi := lo + 500
		if hi > len(rest) {
			hi = len(rest)
		}
		st.AddBatch(rest[lo:hi], 2)
	}
	close(stop)
	wg.Wait()
	// Steady state: planner and reference agree on the final store.
	for _, expr := range queryExprs {
		selectBoth(t, st, expr, 0)
	}
}
