package datastore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"campuslab/internal/eventlog"
	"campuslab/internal/traffic"
)

// equivFrames builds a labeled benign+attack scenario big enough to spread
// flows across every shard configuration under test.
func equivFrames(t testing.TB) []traffic.Frame {
	t.Helper()
	plan := traffic.DefaultPlan(30)
	benign := traffic.NewCampus(traffic.Profile{
		Plan: plan, FlowsPerSecond: 80, Duration: 2 * time.Second, Seed: 4201,
	})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(3),
		Start: 300 * time.Millisecond, Duration: time.Second, Rate: 500, Seed: 4202,
	})
	frames := traffic.Collect(traffic.NewMerge(benign, amp), 0)
	if len(frames) < 1000 {
		t.Fatalf("scenario too small: %d frames", len(frames))
	}
	return frames
}

// storeSurface is a store's public surface (Store.surface) captured item
// by item: the one definition of "the same store" the tests compare by,
// and the one Digest hashes.
type storeSurface []surfaceItem

type surfaceItem struct {
	section string
	item    []byte
}

func surfaceOf(s *Store) storeSurface {
	var out storeSurface
	s.surface(func(section string, item []byte) { out = append(out, surfaceItem{section, bytes.Clone(item)}) })
	return out
}

// diff returns "" when got has this surface, or names the first item where
// it differs: its section, its index in the section, and both items.
func (want storeSurface) diff(got *Store) string {
	have := surfaceOf(got)
	nth := make(map[string]int)
	for i := range max(len(want), len(have)) {
		var w, g surfaceItem
		if i < len(want) {
			w = want[i]
		}
		if i < len(have) {
			g = have[i]
		}
		if w.section == g.section && bytes.Equal(w.item, g.item) {
			nth[w.section]++
			continue
		}
		at := cmp.Or(w.section, g.section)
		return fmt.Sprintf("%s %d differs (item %d of %d vs %d):\nwant %s\ngot  %s", at, nth[at], i, len(want), len(have), w, g)
	}
	return ""
}

// String decodes an item for a diff message.
func (it surfaceItem) String() string {
	le, b := binary.LittleEndian, it.item
	switch it.section {
	case "":
		return "nothing (the surface ends)"
	case "row":
		return fmt.Sprintf("row ID %d TS %v link %d label %v actor %v, %d bytes %x", le.Uint64(b), time.Duration(le.Uint64(b[8:])),
			le.Uint16(b[16:]), traffic.Label(b[18]), b[19] == 1, len(b)-20, b[20:min(len(b), 52)])
	case "flow":
		fm, _, err := parseFlow(b)
		return fmt.Sprintf("flow %+v (%v)", fm, err)
	case "label":
		return fmt.Sprintf("label %v: %d flows", traffic.Label(b[0]), le.Uint64(b[1:]))
	case "packets":
		return fmt.Sprintf("%d packets, hot and cold", le.Uint64(b))
	case "event":
		var evs []eventlog.Event
		_, err := parseEvent(&evs, b)
		return fmt.Sprintf("event %+v (%v)", evs, err)
	}
	return fmt.Sprintf("next ID %d, TS watermark %v", le.Uint64(b), time.Duration(le.Uint64(b[8:])))
}

// sameVolume reports the Stats fields a surface leaves to its rows: the
// hot packet, flow and data-byte counters, which two stores of the same
// tiering and the same rows must agree on.
func sameVolume(want, got *Store) string {
	a, b := want.Stats(), got.Stats()
	if a.Packets != b.Packets || a.Flows != b.Flows || a.DataBytes != b.DataBytes {
		return fmt.Sprintf("Stats (hot packets, flows, data bytes) differ: want (%d,%d,%d) got (%d,%d,%d)",
			a.Packets, a.Flows, a.DataBytes, b.Packets, b.Flows, b.DataBytes)
	}
	return ""
}

// TestShardedStoreEquivalence: every query surface — global scan order
// with every row's bytes, the flow listing, label counts, events, the ID
// sequence and the hot volume — is identical at 1, 4, and 16 shards.
func TestShardedStoreEquivalence(t *testing.T) {
	frames := equivFrames(t)
	ingest := func(n int) *Store {
		s := NewSharded(n)
		for i := range frames {
			s.IngestFrame(&frames[i])
		}
		return s
	}
	base := ingest(1)
	if len(base.Flows()) == 0 {
		t.Fatal("baseline store is empty")
	}
	var prev time.Duration
	base.Scan(func(sp *StoredPacket) bool {
		if sp.TS < prev {
			t.Fatalf("baseline scan not time-ordered at ID %d", sp.ID)
		}
		prev = sp.TS
		return true
	})
	want := surfaceOf(base)
	for _, n := range []int{4, 16} {
		s := ingest(n)
		if d := cmp.Or(want.diff(s), sameVolume(base, s)); d != "" {
			t.Errorf("shards=%d: %s", n, d)
		}
	}
}

// TestAddBatchMatchesSerialIngest: the batched parallel ingest path must
// reproduce the one-packet-at-a-time path exactly, at any worker count.
func TestAddBatchMatchesSerialIngest(t *testing.T) {
	frames := equivFrames(t)
	serial := NewSharded(4)
	for i := range frames {
		serial.IngestFrame(&frames[i])
	}
	want := surfaceOf(serial)
	for _, workers := range []int{1, 4, 16} {
		s := NewSharded(4)
		// Split into uneven chunks to exercise batch boundaries.
		for lo := 0; lo < len(frames); {
			hi := lo + 1000 + lo%777
			if hi > len(frames) {
				hi = len(frames)
			}
			s.AddBatch(frames[lo:hi], workers)
			lo = hi
		}
		if d := cmp.Or(want.diff(s), sameVolume(serial, s)); d != "" {
			t.Errorf("addbatch-workers=%d: %s", workers, d)
		}
	}
}

// flowFilter selects a flow's packets: its 5-tuple in either direction.
func flowFilter(t testing.TB, k FlowKey) *Filter {
	t.Helper()
	f, err := ParseFilter(fmt.Sprintf("proto == %d && ((src.ip == %v && src.port == %d && dst.ip == %v && dst.port == %d) ||"+
		" (src.ip == %v && src.port == %d && dst.ip == %v && dst.port == %d))",
		k.Proto, k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.DstIP, k.DstPort, k.SrcIP, k.SrcPort))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPacketIDsGloballyUniqueAcrossShards: packet IDs are global, never
// per-shard-local. A flow's 5-tuple selects exactly its Packets rows, in
// strictly ascending ID, each resolving through Packet; no row belongs to
// two flows, and every IP row belongs to one — untiered and tiered, at 1,
// 4 and 16 shards, and for an IPv4 flow beside its ::ffff:-mapped twin.
func TestPacketIDsGloballyUniqueAcrossShards(t *testing.T) {
	check := func(name string, s *Store) {
		t.Helper()
		owner := make(map[PacketID]FlowKey)
		flows := s.Flows()
		if len(flows) == 0 {
			t.Fatalf("%s: no flows", name)
		}
		for _, fm := range flows {
			rows := s.Select(flowFilter(t, fm.Key), 0)
			if uint64(len(rows)) != fm.Packets {
				t.Fatalf("%s: flow %v: %d rows for %d packets", name, fm.Key, len(rows), fm.Packets)
			}
			for i := range rows {
				id := rows[i].ID
				if k, dup := owner[id]; dup {
					t.Fatalf("%s: packet id %d claimed by flows %v and %v", name, id, k, fm.Key)
				}
				owner[id] = fm.Key
				if i > 0 && id <= rows[i-1].ID {
					t.Fatalf("%s: flow %v: ids not strictly ascending at %d", name, fm.Key, i)
				}
				if sp, ok := s.packetByID(id); !ok || sp.ID != id {
					t.Fatalf("%s: flow %v: id %d does not resolve to a stored packet", name, fm.Key, id)
				}
			}
		}
		s.Scan(func(sp *StoredPacket) bool {
			if _, ok := owner[sp.ID]; sp.Summary.HasIP && !ok {
				t.Fatalf("%s: IP packet %d (%v) belongs to no flow", name, sp.ID, sp.Summary.Tuple)
			}
			return true
		})
	}
	frames := equivFrames(t)
	shardCounts := []int{1, 4, 16}
	if raceEnabled {
		shardCounts = []int{4}
	}
	for _, n := range shardCounts {
		s := NewSharded(n)
		s.AddBatch(frames, 4)
		check(fmt.Sprintf("untiered shards=%d", n), s)
		tiered := ingestTieredOn(t, newMemFS(int64(n)), n, 4, aggressiveTier("/tier"))
		if tiered.TierStats().ColdPackets == 0 {
			t.Fatalf("shards=%d: nothing sealed", n)
		}
		check(fmt.Sprintf("tiered shards=%d", n), tiered)
	}
	twins := NewSharded(4)
	twins.AddBatch(twinFlowFrames(t), 1)
	if n := len(twins.Flows()); n != 2 {
		t.Fatalf("twin frames: %d flows, want 2", n)
	}
	check("twins", twins)
}
