package datastore

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"campuslab/internal/traffic"
)

// segTestRows builds a small (TS, ID)-sorted run of real campus traffic —
// IP, DNS and non-IP rows — the shape encodeSegment sees from a seal.
func segTestRows(t testing.TB, n int) []StoredPacket {
	t.Helper()
	plan := traffic.DefaultPlan(12)
	benign := traffic.NewCampus(traffic.Profile{
		Plan: plan, FlowsPerSecond: 60, Duration: 2 * time.Second, Seed: 99,
	})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(2),
		Start: 200 * time.Millisecond, Duration: time.Second, Rate: 200, Seed: 98,
	})
	s := NewSharded(4)
	for _, f := range traffic.Collect(traffic.NewMerge(benign, amp), 0) {
		f := f
		s.IngestFrame(&f)
	}
	var rows []StoredPacket
	s.Scan(func(sp *StoredPacket) bool {
		rows = append(rows, *sp)
		return len(rows) < n
	})
	if len(rows) < 64 {
		t.Fatalf("scenario too small: %d rows", len(rows))
	}
	return rows
}

func TestSegmentRoundtrip(t *testing.T) {
	rows := segTestRows(t, 1500)
	blob, meta, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	if meta.count != len(rows) || meta.minID != rows[0].ID || meta.maxID != rows[len(rows)-1].ID {
		t.Fatalf("meta inconsistent: %+v for %d rows", meta, len(rows))
	}
	if len(blob) >= rawRowBytes(rows) {
		t.Fatalf("segment (%d B) not smaller than raw rows (%d B)", len(blob), rawRowBytes(rows))
	}
	got, err := decodeSegmentRows(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, got) {
		for i := range rows {
			if !reflect.DeepEqual(rows[i], got[i]) {
				t.Fatalf("row %d differs:\nwant %+v\ngot  %+v", i, rows[i], got[i])
			}
		}
		t.Fatal("rows differ")
	}
	// The attach-time metadata path must agree with the full decode.
	m2, err := openSegMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	if m2.count != meta.count || m2.minID != meta.minID || m2.maxID != meta.maxID ||
		m2.minTS != meta.minTS || m2.maxTS != meta.maxTS {
		t.Fatalf("openSegMeta disagrees: %+v vs %+v", m2, meta)
	}
}

func rawRowBytes(rows []StoredPacket) int {
	n := 0
	for i := range rows {
		n += len(rows[i].Data) + 24
	}
	return n
}

// TestSegmentEncodeRejectsUnsorted: a segment is a dense run in ID order
// whose TS never steps back, and the encoder refuses anything else —
// shuffled rows, an ID gap, a repeated ID, a step back in time — rather
// than write a segment that misstates its rows.
func TestSegmentEncodeRejectsUnsorted(t *testing.T) {
	rows := segTestRows(t, 200)
	if _, _, err := encodeSegment(rows); err != nil {
		t.Fatalf("the dense run itself: %v", err)
	}
	// A row later in time than the one before it, so that only its ID can
	// object when it repeats that row's.
	later := slices.IndexFunc(rows[1:], func(sp StoredPacket) bool { return sp.TS > rows[0].TS }) + 1
	if later == 0 {
		t.Fatal("fixture: every row shares one timestamp")
	}
	for name, mutate := range map[string]func([]StoredPacket) []StoredPacket{
		"swapped":     func(r []StoredPacket) []StoredPacket { r[10], r[40] = r[40], r[10]; return r },
		"ID gap":      func(r []StoredPacket) []StoredPacket { return append(r[:100], r[101:]...) },
		"repeated ID": func(r []StoredPacket) []StoredPacket { r[later].ID = r[later-1].ID; return r[:later+1] },
		"TS back":     func(r []StoredPacket) []StoredPacket { r[later].TS = r[later-1].TS - 1; return r },
	} {
		if _, _, err := encodeSegment(mutate(slices.Clone(rows))); !errors.Is(err, errSegmentCorrupt) {
			t.Errorf("%s: encode err = %v, want a refusal", name, err)
		}
	}
	if _, _, err := encodeSegment(nil); err == nil {
		t.Fatal("empty segment must not encode")
	}
}

// TestSegmentCorruptionDetected: single-bit damage anywhere in the blob
// must surface as a typed errSegmentCorrupt — never a panic, never
// silently wrong rows.
func TestSegmentCorruptionDetected(t *testing.T) {
	rows := segTestRows(t, 400)
	blob, _, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(blob); off += 13 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, err := decodeSegmentRows(mut); err == nil {
			t.Fatalf("flip at offset %d/%d not detected", off, len(blob))
		} else if !errors.Is(err, errSegmentCorrupt) {
			t.Fatalf("flip at offset %d: error does not wrap ErrSegmentCorrupt: %v", off, err)
		}
	}
}

func TestSegmentTruncationDetected(t *testing.T) {
	rows := segTestRows(t, 300)
	blob, _, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut += 11 {
		if _, err := decodeSegmentRows(blob[:cut]); !errors.Is(err, errSegmentCorrupt) {
			t.Fatalf("truncation at %d/%d not detected (err %v)", cut, len(blob), err)
		}
	}
	if _, err := decodeSegmentRows(append(append([]byte(nil), blob...), 0)); !errors.Is(err, errSegmentCorrupt) {
		t.Fatal("trailing garbage not detected")
	}
}

// TestSegmentZonePruning: the zone map must prove absence exactly — no
// false "cannot match" on present values, true pruning on absent ones.
func TestSegmentZonePruning(t *testing.T) {
	rows := segTestRows(t, 500)
	blob, meta, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	mustKeys := func(expr string) []ixRef {
		f, err := ParseFilter(expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if !f.plan.indexable {
			t.Fatalf("%s: not indexable", expr)
		}
		return f.plan.keys
	}
	if !meta.zone.mayMatch(mustKeys("proto == udp && dst.port == 53")) {
		t.Fatal("zone pruned a value combination the segment contains")
	}
	if meta.zone.mayMatch(mustKeys("dst.port == 59999")) {
		t.Fatal("zone failed to prune an absent port")
	}
	if meta.zone.mayMatch(mustKeys("link == 9999")) {
		t.Fatal("zone failed to prune an absent link")
	}
	// Decode path must agree with the metadata zone.
	sb, err := parseSegment(blob)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sb.decodeIndex()
	if err != nil {
		t.Fatal(err)
	}
	z := ix.zone()
	if !reflect.DeepEqual(z, meta.zone) {
		t.Fatal("decoded zone differs from encoder zone")
	}
}

// TestSegmentSelectiveDecodeSkipsData: counting by index must not inflate
// the data column — rowsAt is only reached when rows are materialized.
func TestSegmentSelectiveDecodeSkipsData(t *testing.T) {
	rows := segTestRows(t, 500)
	blob, _, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := parseSegment(blob)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sb.decodeIndex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFilter("proto == udp && dst.port == 53")
	if err != nil {
		t.Fatal(err)
	}
	cand, ok := (&segCursor{dir: &segDir{post: ix}}).candidates(&f.plan, 0, len(rows))
	if !ok {
		t.Fatal("plan should be indexable")
	}
	want := 0
	for i := range rows {
		if f.match(&rows[i]) {
			want++
		}
	}
	if len(cand) != want {
		t.Fatalf("index candidates %d != matched rows %d", len(cand), want)
	}
	tss, err := sb.decodeTS()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sb.rowsAt(cand, ix, tss, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if !f.match(&r) {
			t.Fatalf("materialized candidate %d does not match", i)
		}
	}
}

// TestEncodeSegmentWorkersCanonical: the v2 encoder fans its data blocks
// out across GOMAXPROCS workers, and the blob must not depend on how many
// there are — segment bytes are a pure function of the rows.
func TestEncodeSegmentWorkersCanonical(t *testing.T) {
	rows := segTestRows(t, 1500) // 47 blocks: uneven ranges at 2 and 8 workers
	if len(rows) <= 8*segBlockRows {
		t.Fatalf("only %d rows: every worker needs more than one block", len(rows))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		blob, _, err := encodeSegment(rows)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if want == nil {
			want = blob
		} else if !bytes.Equal(want, blob) {
			t.Fatalf("GOMAXPROCS=%d: blob differs from the single-worker encoding (%d vs %d bytes)", procs, len(blob), len(want))
		}
		got, err := decodeSegmentRows(blob)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !reflect.DeepEqual(rows, got) {
			t.Fatalf("GOMAXPROCS=%d: decode differs from the input rows", procs)
		}
	}
}
