package datastore

import (
	"cmp"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// Tests for the key table: what a packet is indexed under is the same in
// the hot postings, in a sealed segment's postings and in keyVal/keyFlags, and a
// segment's postings are the same built from rows as decoded from bytes.

// keyTestRows makes a (TS, ID)-sorted run of n packets with synthetic
// summaries, leaning on the edges of the key domains: non-IP packets (proto
// and ports 0, no flags), port and link 0 and 65535, and — with wide set —
// far more than segZoneMaxVals distinct ports.
func keyTestRows(r *rand.Rand, n int, wide bool) []StoredPacket {
	edges := []uint16{0, 1, 53, 255, 256, 0xfffe, 0xffff}
	pick := func() uint16 {
		if wide || r.Intn(4) == 0 {
			return uint16(r.Intn(0x10000))
		}
		return edges[r.Intn(len(edges))]
	}
	rows := make([]StoredPacket, n)
	for i := range rows {
		sp := &rows[i]
		sp.ID, sp.TS = PacketID(1+i), time.Duration(i/3)*time.Millisecond
		sp.Link, sp.Label = pick(), traffic.Label(r.Intn(int(traffic.NumLabels)))
		sp.Data = []byte{byte(i)}
		if r.Intn(5) == 0 {
			continue // non-IP
		}
		s := &sp.Summary
		s.HasIP = true
		s.Tuple.Proto = packet.IPProtocol([]uint8{0, 1, 6, 17, 255}[r.Intn(5)])
		s.Tuple.SrcPort, s.Tuple.DstPort = pick(), pick()
		s.HasTCP, s.HasUDP, s.HasICMP = r.Intn(2) == 0, r.Intn(3) == 0, r.Intn(9) == 0
		s.IsDNS = r.Intn(4) == 0
		s.DNSResponse = s.IsDNS && r.Intn(2) == 0
	}
	return rows
}

// TestBuildSegPostingsMatchesDecodeIndex: the postings seal builds from a
// row run are, field for field, what decodeIndex rebuilds from the segment
// that seal wrote — one posting form, whichever side of the file it is on.
func TestBuildSegPostingsMatchesDecodeIndex(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	overflowed := false
	for _, c := range []struct {
		n    int
		wide bool
	}{{1, false}, {2, false}, {33, false}, {700, false}, {1, true}, {3000, true}} {
		rows := keyTestRows(r, c.n, c.wide)
		built := buildSegPostings(rows)
		blob, meta, err := encodeSegment(rows)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		sb, err := parseSegment(blob)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		decoded, err := sb.decodeIndex()
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if !reflect.DeepEqual(built, decoded) {
			t.Fatalf("n=%d wide=%v: built postings differ from the decoded index column", c.n, c.wide)
		}
		if !reflect.DeepEqual(meta.zone, decoded.zone()) {
			t.Fatalf("n=%d wide=%v: seal's zone differs from the attach path's", c.n, c.wide)
		}
		srcPorts := len(built.vals[ixSrcPort-1])
		if over := meta.zone.vals[ixSrcPort-1] == nil; over != (srcPorts > segZoneMaxVals) {
			t.Fatalf("n=%d wide=%v: %d distinct src ports, zone range-only=%v", c.n, c.wide, srcPorts, over)
		}
		overflowed = overflowed || srcPorts > segZoneMaxVals
		// Range-only or exact, a zone never prunes a key some row has.
		for i := range rows {
			sp := &rows[i]
			if !meta.zone.mayMatch([]ixRef{{ixSrcPort, uint64(keyVal(sp, ixSrcPort))}, {ixLabel, uint64(keyVal(sp, ixLabel))}}) {
				t.Fatalf("n=%d wide=%v: zone prunes the keys of row %d", c.n, c.wide, i)
			}
		}
	}
	if !overflowed {
		t.Fatal("no run overflowed the zone's exact value set")
	}
}

// TestHotAndColdIndexTheSameKeys: for every packet, the posting lists that
// contain it — over the whole domain of every family, and just outside —
// are the same in a shard's postings and in a segment's, and are exactly
// the refs keyVal and keyFlags name.
func TestHotAndColdIndexTheSameKeys(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rows := keyTestRows(r, 400, false)
	hot, cold := newPostings(), buildSegPostings(rows)
	for i := range rows {
		hot.add(&rows[i])
	}
	inHot, inCold := make([][]ixRef, len(rows)), make([][]ixRef, len(rows))
	everyRef(func(ref ixRef) {
		for _, id := range hot.lookup(ref) {
			inHot[id-1] = append(inHot[id-1], ref) // IDs are 1-based row positions
		}
		for _, row := range cold.lookup(ref) {
			inCold[row] = append(inCold[row], ref)
		}
	})
	for i := range rows {
		var want []ixRef
		for kind := ixProto; kind < ixFlag; kind++ {
			want = append(want, ixRef{kind, uint64(keyVal(&rows[i], kind))})
		}
		for fl, on := range keyFlags(&rows[i]) {
			if on {
				want = append(want, ixRef{ixFlag, uint64(fl)})
			}
		}
		for _, refs := range [][]ixRef{want, inHot[i], inCold[i]} {
			slices.SortFunc(refs, func(a, b ixRef) int {
				return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.val, b.val))
			})
		}
		if !slices.Equal(inHot[i], want) || !slices.Equal(inCold[i], want) {
			t.Fatalf("row %d: key table %v, hot postings %v, segment postings %v", i, want, inHot[i], inCold[i])
		}
	}
}

// TestFilterDocListsEveryField holds README's "Filter fields" table and the
// compiler to each other: the documented fields are exactly the ones the
// compiler's tables name, each example parses, a row says "indexed" exactly
// when its example plans onto a posting list, and the operators listed are
// exactly the ones the compiler accepts for that field.
func TestFilterDocListsEveryField(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(readme), "### Filter fields")
	if !found {
		t.Fatal(`README.md has no "### Filter fields" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")

	inCode := map[string]bool{}
	for _, k := range valueKeys {
		inCode[k.name] = true
	}
	for _, name := range flagKeys {
		inCode[name] = true
	}
	for name := range tcpBits {
		inCode[name] = true
	}
	for name := range residualFields {
		inCode[name] = true
	}

	accepts := func(expr string) bool { _, err := ParseFilter(expr); return err == nil }
	probes := []string{"53", "udp", "dns-amp", "1s", "10.0.0.1", "10.0.0.0/8", "ANY"}
	inDoc := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 7 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue // prose, header or rule
		}
		field := strings.Trim(strings.TrimSpace(cells[1]), "`")
		ops, planner, example := cells[3], strings.TrimSpace(cells[4]), strings.Trim(strings.TrimSpace(cells[5]), "`")
		inDoc[field] = true
		if !inCode[field] {
			t.Errorf("README documents %q, which the compiler does not know", field)
			continue
		}
		f, err := ParseFilter(example)
		if err != nil || !strings.HasPrefix(example, field) {
			t.Errorf("%s: example %q: err %v", field, example, err)
			continue
		}
		if doc := strings.HasPrefix(planner, "indexed"); doc != f.Indexable() {
			t.Errorf("%s: README says indexed=%v, %q plans indexable=%v", field, doc, example, f.Indexable())
		}
		if doc := strings.TrimSpace(ops) == "bare"; doc != accepts(field) {
			t.Errorf("%s: README says bare=%v, compiler accepts it bare=%v", field, doc, accepts(field))
		}
		for _, op := range []string{"==", "!=", "<", "<=", ">", ">=", "in"} {
			accepted := false
			for _, v := range probes {
				accepted = accepted || accepts(field+" "+op+" "+v)
			}
			if doc := strings.Contains(ops, "`"+op+"`"); doc != accepted {
				t.Errorf("%s %s: README lists it=%v, compiler accepts it=%v", field, op, doc, accepted)
			}
		}
	}
	for field := range inCode {
		if !inDoc[field] {
			t.Errorf("the compiler knows %q, which README's table does not list", field)
		}
	}
}
