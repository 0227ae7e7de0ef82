package datastore

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"campuslab/internal/frame"
	"campuslab/internal/traffic"
)

// waitEncoder blocks until the tier's encode-ahead goroutine has run out
// of work, so the next trip finds every queued blob ready.
func waitEncoder(t testing.TB, s *Store) {
	t.Helper()
	tr := s.tier.Load()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		tr.preMu.Lock()
		idle := !tr.preRun
		tr.preMu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("encode-ahead goroutine never went idle")
		}
	}
}

// checkPre fails unless the encode-ahead list is what encodeAhead leaves:
// at most ⌈HotPackets/SegmentPackets⌉+1 entries, ascending, each starting
// on a chunk boundary at or above sealedBelow.
func checkPre(t testing.TB, s *Store, when string) {
	t.Helper()
	tr := s.tier.Load()
	S, hot := PacketID(tr.policy.SegmentPackets), PacketID(tr.policy.HotPackets)
	tr.preMu.Lock()
	defer tr.preMu.Unlock()
	base := PacketID(tr.sealedBelow.Load())
	if bound := int((hot+S-1)/S) + 1; len(tr.pre) > bound {
		t.Fatalf("%s: %d blobs held, bound %d", when, len(tr.pre), bound)
	}
	for i, p := range tr.pre {
		if p.lo < base || (p.lo-base)%S != 0 || (i > 0 && p.lo <= tr.pre[i-1].lo) {
			t.Fatalf("%s: entry %d starts at %d, sealedBelow %d, segment %d", when, i, p.lo, base, S)
		}
	}
}

// checkSegmentsCanonical fails unless every registered segment file is
// byte for byte encodeSegment of its own rows read back through
// readSegRows: whoever encoded a published blob, it is the seal's bytes.
func checkSegmentsCanonical(t testing.TB, s *Store, seen map[string]bool) {
	t.Helper()
	tr := s.tier.Load()
	tr.sealMu.Lock()
	defer tr.sealMu.Unlock()
	for _, sg := range tr.segs {
		if seen[sg.name] {
			continue
		}
		seen[sg.name] = true
		got, err := tr.fsys.ReadFile(tr.dir + "/" + sg.name)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := tr.readSegRows(sg)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := encodeSegment(rows)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("segment %s (IDs %d..%d, %d rows) differs from encodeSegment of its rows", sg.name, sg.meta.minID, sg.meta.maxID, sg.meta.count)
		}
	}
}

// TestSealPublishesEncodedAheadBytes: with every blob ready before each
// trip, each triggered seal publishes the blobs encoded ahead — the
// used counter moves by one per segment sealed — and every published
// segment is the canonical encoding of its rows.
func TestSealPublishesEncodedAheadBytes(t *testing.T) {
	frames := tierFrames(t)
	s := NewSharded(4)
	if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), HotPackets: 1024, MinSealPackets: 32, SegmentPackets: 128}); err != nil {
		t.Fatal(err)
	}
	used0 := obsTierPreUsed.Value()
	seen := map[string]bool{}
	for lo := 0; lo < len(frames); lo += 100 {
		waitEncoder(t, s)
		if _, err := s.AddBatch(frames[lo:min(lo+100, len(frames))], 2); err != nil {
			t.Fatal(err)
		}
		checkPre(t, s, "after batch")
		checkSegmentsCanonical(t, s, seen)
	}
	ts := s.TierStats()
	if ts.Seals < 3 || ts.Err != nil {
		t.Fatalf("want several clean policy seals, got %+v", ts)
	}
	if used, segs := obsTierPreUsed.Value()-used0, ts.SealedPackets/128; used != segs {
		t.Fatalf("%d segments sealed, %d of them from encoded-ahead blobs; want all", segs, used)
	}
}

// TestEncodeAheadStaleBlobs: explicit seals and a tiered EvictBefore move
// sealedBelow off the chunk boundary after the encoder ran. The stranded
// blobs are discarded (and counted), the list re-aligns and stays inside
// its bound, every published segment is still canonical, and the store
// answers like an untiered twin fed the same batches.
func TestEncodeAheadStaleBlobs(t *testing.T) {
	frames := tierFrames(t)
	s, ref := NewSharded(4), NewSharded(4)
	if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), HotPackets: 1024, MinSealPackets: 32, SegmentPackets: 128}); err != nil {
		t.Fatal(err)
	}
	discarded0 := obsTierPreDiscarded.Value()
	seen := map[string]bool{}
	for i, lo := 0, 0; lo < len(frames); i, lo = i+1, lo+150 {
		batch := frames[lo:min(lo+150, len(frames))]
		for _, st := range []*Store{s, ref} {
			if _, err := st.AddBatch(batch, 2); err != nil {
				t.Fatal(err)
			}
		}
		waitEncoder(t, s)
		checkPre(t, s, "after batch")
		switch i % 5 {
		case 2:
			if _, err := s.sealHot(uint64(300 + 7*i)); err != nil {
				t.Fatal(err)
			}
		case 4:
			s.EvictBefore(batch[len(batch)/3].TS)
		default:
			continue
		}
		checkPre(t, s, "after explicit seal")
		checkSegmentsCanonical(t, s, seen)
	}
	if obsTierPreDiscarded.Value() == discarded0 {
		t.Fatal("no encoded-ahead blob was ever discarded: the explicit seals stranded nothing")
	}
	if ts := s.TierStats(); ts.Err != nil || ts.Seals == 0 {
		t.Fatalf("tier stats %+v", ts)
	}
	if d := tierViewOf(ref).diff(s); d != "" {
		t.Fatal(d)
	}
}

// TestEncodeAheadRace races writers (whose batches trip seals) and
// Select/Count against the encoder goroutine, and then checks the store:
// every acked row once, in (TS, ID) order, Count == Select, every segment
// canonical. Primarily a -race gate for preMu against the shard locks,
// sealMu and the trip's wait on a blob being encoded.
func TestEncodeAheadRace(t *testing.T) {
	frames := tierFrames(t)
	if len(frames) > 3000 {
		frames = frames[:3000]
	}
	s := NewSharded(4)
	if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), HotPackets: 512, MinSealPackets: 16, SegmentPackets: 64}); err != nil {
		t.Fatal(err)
	}
	f := MustFilter("proto == udp && dst.port == 53")
	const writers = 3
	var wg, qwg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * 50; lo < len(frames); lo += writers * 50 {
				if _, err := s.AddBatch(frames[lo:min(lo+50, len(frames))], 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sel := s.Select(f, 0)
			if n := s.Count(f); n < len(sel) {
				t.Errorf("Count %d below an earlier Select's %d rows", n, len(sel))
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	qwg.Wait()
	waitEncoder(t, s)
	checkPre(t, s, "after the race")
	checkSegmentsCanonical(t, s, map[string]bool{})
	seen := map[PacketID]bool{}
	var last *StoredPacket
	s.Scan(func(sp *StoredPacket) bool {
		if seen[sp.ID] || (last != nil && (sp.TS < last.TS || (sp.TS == last.TS && sp.ID < last.ID))) {
			t.Fatalf("row %d repeated or out of (TS, ID) order", sp.ID)
		}
		seen[sp.ID] = true
		cp := *sp
		last = &cp
		return true
	})
	if len(seen) != len(frames) {
		t.Fatalf("scan holds %d rows, %d acked", len(seen), len(frames))
	}
	if n, sel := s.Count(f), s.Select(f, 0); n != len(sel) {
		t.Fatalf("Count %d, Select %d", n, len(sel))
	}
	if ts := s.TierStats(); ts.Seals == 0 || ts.Err != nil {
		t.Fatalf("tier stats %+v", ts)
	}
}

// TestSealEncodeFailureIsLoud plants a hot row encodeSegment refuses (a
// body over the record cap, which ingest no longer admits) in a run the
// encoder has not seen. The encoder's refusal and the trip's inline one
// are on TierStats.Err and the seal error counter, nothing goes cold, the
// next batch over the cap retries, and once the row is mended the next
// trip seals.
func TestSealEncodeFailureIsLoud(t *testing.T) {
	frames := tierFrames(t)
	s := NewSharded(2)
	if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), HotPackets: 256, MinSealPackets: 1, SegmentPackets: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddBatch(frames[:10], 1); err != nil {
		t.Fatal(err)
	}
	// Row 5's run, [0, 64), is incomplete: neither the encoder nor a trip
	// has read it yet.
	var sh *shard
	var pos int
	for _, cand := range s.shards {
		for i := range cand.packets {
			if cand.packets[i].ID == 5 {
				sh, pos = cand, i
			}
		}
	}
	sh.lock()
	good := sh.packets[pos].Data
	sh.packets[pos].Data = make([]byte, frame.MaxRecordData+1)
	sh.mu.Unlock()

	errs0 := obsTierSealErrs.Value()
	next := 10
	add := func(n int) {
		t.Helper()
		if _, err := s.AddBatch(frames[next:next+n], 1); err != nil {
			t.Fatal(err)
		}
		next += n
	}
	for s.totPackets.Load() <= 256 {
		add(30)
	}
	ts := s.TierStats()
	if !errors.Is(ts.Err, errSegmentCorrupt) {
		t.Fatalf("TierStats.Err = %v, want the refused encode", ts.Err)
	}
	if ts.Seals != 0 || ts.ColdPackets != 0 || s.totPackets.Load() != uint64(next) {
		t.Fatalf("a refused seal moved rows: %+v, %d hot of %d", ts, s.totPackets.Load(), next)
	}
	errs1 := obsTierSealErrs.Value()
	if errs1 == errs0 {
		t.Fatal("refused encode not counted in campuslab_tier_maintenance_errors_total{op=\"seal\"}")
	}
	add(5)
	if obsTierSealErrs.Value() == errs1 {
		t.Fatal("the next batch over the cap did not retry the seal")
	}
	if s.TierStats().Seals != 0 {
		t.Fatal("a seal over the bad row committed")
	}
	sh.lock()
	sh.packets[pos].Data = good
	sh.mu.Unlock()
	add(5)
	if ts := s.TierStats(); ts.Seals != 1 || ts.ColdPackets == 0 || s.totPackets.Load() > 256 {
		t.Fatalf("mended row, next trip: %+v, %d hot", ts, s.totPackets.Load())
	}
}

// TestOversizedFrameRefused: a frame over frame.MaxRecordData is refused
// with its whole batch before the WAL sees it. Before the funnel checked,
// the WAL logged it and replay stopped there as torn, losing every acked
// batch after it, and a tiered store could never seal past it.
func TestOversizedFrameRefused(t *testing.T) {
	big := []traffic.Frame{{TS: time.Second, Data: make([]byte, frame.MaxRecordData+1)}}
	later := labeledFrames(10)
	for i := range later {
		later[i].TS += 2 * time.Second
	}
	refuse := func(t *testing.T, s *Store) {
		t.Helper()
		rej, hot := obsIngestRejected.Value(), s.totPackets.Load()
		if _, err := s.AddBatch(big, 1); !errors.Is(err, errFrameTooLarge) {
			t.Fatalf("oversized frame: err = %v, want errFrameTooLarge", err)
		}
		if obsIngestRejected.Value() != rej+1 || s.totPackets.Load() != hot {
			t.Fatal("refused batch not counted once, or applied")
		}
	}
	t.Run("durable", func(t *testing.T) {
		cfg := DurableConfig{Dir: t.TempDir(), Fsync: FsyncAlways, Shards: 2}
		st, _, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AddBatch(labeledFrames(10), 1); err != nil {
			t.Fatal(err)
		}
		refuse(t, st)
		if _, err := st.AddBatch(later, 1); err != nil {
			t.Fatal(err)
		}
		if err := st.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		re, rs, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Torn || re.Stats().Packets != 20 {
			t.Fatalf("recovered %d packets (torn %v), acked 20", re.Stats().Packets, rs.Torn)
		}
	})
	t.Run("tiered", func(t *testing.T) {
		s := New()
		if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), HotPackets: 8, MinSealPackets: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddBatch(labeledFrames(10), 1); err != nil {
			t.Fatal(err)
		}
		refuse(t, s)
		for i := 0; i < 5; i++ {
			if _, err := s.AddBatch(later, 1); err != nil {
				t.Fatal(err)
			}
			for j := range later {
				later[j].TS += time.Second
			}
		}
		if ts := s.TierStats(); ts.Seals < 5 || ts.Err != nil || s.totPackets.Load() > 8 {
			t.Fatalf("seals stopped after the refused frame: %+v, %d hot", ts, s.totPackets.Load())
		}
	})
}
