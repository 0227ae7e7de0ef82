package datastore

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

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

// fingerprint captures every externally observable surface of a store.
type storePrint struct {
	scanIDs   []PacketID
	scanTS    []time.Duration
	flows     []FlowMeta
	saveBytes []byte
	packets   uint64
	flowCount uint64
	dataBytes uint64
}

func fingerprintStore(t *testing.T, s *Store) storePrint {
	t.Helper()
	var p storePrint
	s.Scan(func(sp *StoredPacket) bool {
		p.scanIDs = append(p.scanIDs, sp.ID)
		p.scanTS = append(p.scanTS, sp.TS)
		return true
	})
	p.flows = s.Flows()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	p.saveBytes = buf.Bytes()
	st := s.Stats()
	p.packets, p.flowCount, p.dataBytes = st.Packets, st.Flows, st.DataBytes
	return p
}

func comparePrints(t *testing.T, name string, want, got storePrint) {
	t.Helper()
	if !reflect.DeepEqual(want.scanIDs, got.scanIDs) {
		t.Errorf("%s: Scan ID order differs (want %d ids, got %d)", name, len(want.scanIDs), len(got.scanIDs))
	}
	if !reflect.DeepEqual(want.scanTS, got.scanTS) {
		t.Errorf("%s: Scan timestamp order differs", name)
	}
	if len(want.flows) != len(got.flows) {
		t.Fatalf("%s: flow count differs: want %d got %d", name, len(want.flows), len(got.flows))
	}
	for i, w := range want.flows {
		if g := got.flows[i]; w != g {
			t.Errorf("%s: flow %d meta differs:\nwant %+v\ngot  %+v", name, i, w, g)
		}
	}
	if !bytes.Equal(want.saveBytes, got.saveBytes) {
		t.Errorf("%s: Save snapshot bytes differ (want %d bytes, got %d)", name, len(want.saveBytes), len(got.saveBytes))
	}
	if want.packets != got.packets || want.flowCount != got.flowCount || want.dataBytes != got.dataBytes {
		t.Errorf("%s: Stats differ: want (%d,%d,%d) got (%d,%d,%d)", name,
			want.packets, want.flowCount, want.dataBytes,
			got.packets, got.flowCount, got.dataBytes)
	}
}

// TestShardedStoreEquivalence: every query surface — global scan order,
// flow listing, snapshot bytes, stats — must be
// byte-for-byte identical at 1, 4, and 16 shards.
func TestShardedStoreEquivalence(t *testing.T) {
	frames := equivFrames(t)
	ingest := func(n int) storePrint {
		s := NewSharded(n)
		for i := range frames {
			s.IngestFrame(&frames[i])
		}
		return fingerprintStore(t, s)
	}
	base := ingest(1)
	if len(base.scanIDs) == 0 || len(base.flows) == 0 {
		t.Fatal("baseline store is empty")
	}
	for i := 1; i < len(base.scanIDs); i++ {
		if base.scanTS[i] < base.scanTS[i-1] {
			t.Fatalf("baseline scan not time-ordered at %d", i)
		}
	}
	comparePrints(t, "shards=4", base, ingest(4))
	comparePrints(t, "shards=16", base, ingest(16))
}

// TestAddBatchMatchesSerialIngest: the batched parallel ingest path must
// reproduce the one-packet-at-a-time path exactly, at any worker count.
func TestAddBatchMatchesSerialIngest(t *testing.T) {
	frames := equivFrames(t)
	serial := NewSharded(4)
	for i := range frames {
		serial.IngestFrame(&frames[i])
	}
	want := fingerprintStore(t, serial)
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
		comparePrints(t, fmt.Sprintf("addbatch-workers=%d", workers), want, fingerprintStore(t, s))
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
