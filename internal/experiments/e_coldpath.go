package experiments

import (
	"fmt"
	"os"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/traffic"
)

// e19ColdQueryFastPath re-runs the E17 25x stream against two cold tiers
// — block-compressed (v4) segments read cold every time, and
// the same segments behind the tier cache (decoded blocks plus resident
// segment directories) — and substantiates the fast-path claims:
//
//   - equivalence: both answer every query surface exactly like the
//     all-RAM reference (the fast path changes cost, never results);
//   - latency: a selective cold Select decodes only the summary stripes
//     and blocks holding its candidate rows, and a warm cache answers
//     from RAM (reported best-of-3, not asserted — wall clock is
//     environmental);
//   - cache: repeated queries against the cached tier serve mostly from
//     the cache (hit rate >= 50% after warm-up);
//   - metadata-only Count: an indexable Count over a time window is
//     answered from the segment directories alone — on the cached tier
//     every directory is a hit and no data block is looked up, let alone
//     inflated (latency reported, the block traffic asserted).
func e19ColdQueryFastPath() (*Table, error) {
	t := &Table{
		ID:      "E19",
		Title:   "cold-tier query fast path: block decode, cache",
		Columns: []string{"step", "v4", "v4+cache", "detail", "outcome"},
	}

	const epochs = 12
	plan := traffic.DefaultPlan(40)
	epochSpan := 2 * time.Second
	all := make([][]traffic.Frame, epochs)
	total := 0
	for e := 0; e < epochs; e++ {
		frames := tierEpochFrames(plan, e)
		off := time.Duration(e) * epochSpan
		for i := range frames {
			frames[i].TS += off
		}
		all[e] = frames
		total += len(frames)
	}
	capacity := max(256, total/25)

	type tierCase struct {
		name  string
		cache int64
		store *datastore.Store
	}
	cases := []*tierCase{
		{name: "v4"},
		{name: "v4+cache", cache: 64 << 20},
	}
	for _, c := range cases {
		dir, err := os.MkdirTemp("", "e19-tier-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		c.store = datastore.NewSharded(4)
		if err := c.store.EnableTiering(datastore.TierPolicy{
			Dir:            dir,
			HotPackets:     uint64(capacity),
			MinSealPackets: 256,
			SegmentPackets: max(512, capacity/4),
			CacheBytes:     c.cache,
		}); err != nil {
			return nil, err
		}
	}
	ref := datastore.NewSharded(4)

	const batch = 512
	ingested := 0
	for e := 0; e < epochs; e++ {
		frames := all[e]
		for lo := 0; lo < len(frames); lo += batch {
			hi := min(lo+batch, len(frames))
			for _, c := range cases {
				if _, err := c.store.AddBatch(frames[lo:hi], workers()); err != nil {
					return nil, fmt.Errorf("e19 epoch %d (%s): %w", e, c.name, err)
				}
			}
			if _, err := ref.AddBatch(frames[lo:hi], workers()); err != nil {
				return nil, fmt.Errorf("e19 epoch %d (ref): %w", e, err)
			}
		}
		ingested += len(frames)
	}
	for _, c := range cases {
		if ts := c.store.TierStats(); ts.Err != nil {
			return nil, fmt.Errorf("e19 %s: tier degraded: %w", c.name, ts.Err)
		}
	}

	// Claim 1: equivalence for the uncached and the cached tier.
	for _, c := range cases {
		if err := tierEquivRow19(t, c.name, c.store, ref, ingested); err != nil {
			return nil, err
		}
	}

	// Claim 2 (reported): selective cold Select latency. The filter is a
	// needle in the oldest (fully cold) window, so the uncached tier
	// decodes the summary stripes and inflates the blocks its candidates
	// live in, and the cached tier (warmed by the run below) mostly skips
	// both entirely.
	sel, err := datastore.ParseFilter("ts < 2s && proto == udp && dst.port == 53")
	if err != nil {
		return nil, err
	}
	lat := func(s *datastore.Store) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			s.Select(sel, 0)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	// Warm the cache before timing it, and measure the hit rate over the
	// repeated queries (claim 3).
	cached := cases[1].store
	cached.Select(sel, 0)
	pre := cached.TierStats()
	lats := make([]time.Duration, len(cases))
	for i, c := range cases {
		lats[i] = lat(c.store)
	}
	post := cached.TierStats()
	hits := post.CacheHits - pre.CacheHits
	misses := post.CacheMisses - pre.CacheMisses
	hitRate := float64(hits) / float64(max(1, int(hits+misses)))

	t.addRow("cold selective Select", lats[0].String(), lats[1].String(),
		"oldest-window needle, best of 3", "report")

	cacheOutcome := fmt.Sprintf("PASS: %.0f%% served from cache", 100*hitRate)
	if hitRate < 0.5 {
		cacheOutcome = fmt.Sprintf("FAIL: hit rate %.0f%% < 50%%", 100*hitRate)
	}
	t.addRow("cache hit rate", "", fmt.Sprintf("%d/%d", hits, hits+misses),
		fmt.Sprintf("%s resident, %d blocks and stripes", fmtBytes(uint64(post.CacheBytes)), post.CacheEntries),
		cacheOutcome)

	// Claim 4: the windowed indexable Count. Its ts conjuncts are the
	// window, not a residual, so the answer is a posting-list intersection
	// clipped to it; the cached tier serves that from resident directories.
	cnt, err := datastore.ParseFilter("ts >= 1s && ts < 9s && proto == udp && dst.port == 53")
	if err != nil {
		return nil, err
	}
	want := ref.Count(cnt)
	cached.Count(cnt) // first touch builds any directory still missing
	pre = cached.TierStats()
	clats := make([]time.Duration, len(cases))
	for i, c := range cases {
		best := time.Duration(1<<63 - 1)
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			got := c.store.Count(cnt)
			if d := time.Since(t0); d < best {
				best = d
			}
			if got != want {
				return nil, fmt.Errorf("e19 %s: windowed Count %d, reference %d", c.name, got, want)
			}
		}
		clats[i] = best
	}
	post = cached.TierStats()
	t.addRow("cold windowed Count", clats[0].String(), clats[1].String(),
		fmt.Sprintf("%d matches, best of 3", want), "report")
	dirHits, dirMisses := post.DirHits-pre.DirHits, post.DirMisses-pre.DirMisses
	blockLookups := (post.CacheHits - pre.CacheHits) + (post.CacheMisses - pre.CacheMisses)
	dirOutcome := fmt.Sprintf("PASS: %d directory hits, 0 built, 0 blocks touched", dirHits)
	if dirHits == 0 || dirMisses != 0 || blockLookups != 0 {
		dirOutcome = fmt.Sprintf("FAIL: %d directory hits, %d built, %d block lookups", dirHits, dirMisses, blockLookups)
	}
	t.addRow("Count from directories", "", fmt.Sprintf("%d/%d", dirHits, dirHits+dirMisses),
		fmt.Sprintf("%s resident in %d directories", fmtBytes(uint64(post.DirBytes)), post.DirEntries), dirOutcome)

	t.Notes = append(t.Notes,
		"expected shape: the selective cold Select decodes only the summary stripes and blocks holding candidate rows; the warm cache beats it by skipping inflation and the per-query column decode (its segment directories are resident); the windowed Count never reads a data block on either tier, so the uncached tier pays only the directory build it repeats per query",
		"Store.SetScanQuery(true) re-runs any query through the serial full-scan reference engine; results must not change",
		"this container is 1-CPU: the latency rows are reports, not assertions; the equivalence, hit-rate and directory claims are machine-independent")
	return t, nil
}

// tierEquivRow19 is tierEquivRow reshaped for E19's column layout: one
// row per tier case, the named column carrying its packet totals.
func tierEquivRow19(t *Table, name string, st, ref *datastore.Store, ingested int) error {
	probe := &Table{Columns: t.Columns}
	if err := tierEquivRow(probe, name, st, ref, ingested); err != nil {
		return err
	}
	row := probe.Rows[len(probe.Rows)-1]
	ss := st.Stats()
	cell := fmt.Sprintf("%d hot + %d cold", ss.Packets, ss.ColdPackets)
	cells := []string{"", ""}
	for i, c := range []string{"v4", "v4+cache"} {
		if c == name {
			cells[i] = cell
		}
	}
	t.addRow("equivalence "+name, cells[0], cells[1],
		fmt.Sprintf("scan + 5 filters + flows (%d pkts)", ingested), row[len(row)-1])
	return nil
}
