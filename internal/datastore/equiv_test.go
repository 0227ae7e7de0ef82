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
	flowPkts  [][]PacketID
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
	for i := range p.flows {
		p.flowPkts = append(p.flowPkts, p.flows[i].PacketIDs())
	}
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
	for i := range want.flows {
		w, g := want.flows[i], got.flows[i]
		// pktIDs is unexported; compare via the accessor lists below.
		w.pktIDs, g.pktIDs = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: flow %d meta differs:\nwant %+v\ngot  %+v", name, i, w, g)
		}
	}
	if !reflect.DeepEqual(want.flowPkts, got.flowPkts) {
		t.Errorf("%s: per-flow PacketIDs differ", name)
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
// flow listing, per-flow packet IDs, snapshot bytes, stats — must be
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

// TestPacketIDsGloballyUniqueAcrossShards: flow packet IDs must be globally
// unique and strictly ascending per flow, never per-shard-local.
func TestPacketIDsGloballyUniqueAcrossShards(t *testing.T) {
	frames := equivFrames(t)
	s := NewSharded(16)
	s.AddBatch(frames, 4)
	seen := make(map[PacketID]FlowKey)
	for _, fm := range s.Flows() {
		ids := fm.PacketIDs()
		if uint64(len(ids)) != fm.Packets {
			t.Fatalf("flow %v: %d ids for %d packets", fm.Key, len(ids), fm.Packets)
		}
		for i, id := range ids {
			if owner, dup := seen[id]; dup {
				t.Fatalf("packet id %d claimed by flows %v and %v", id, owner, fm.Key)
			}
			seen[id] = fm.Key
			if i > 0 && ids[i] <= ids[i-1] {
				t.Fatalf("flow %v: ids not strictly ascending at %d", fm.Key, i)
			}
			if sp, ok := s.Packet(id); !ok || sp.ID != id {
				t.Fatalf("flow %v: id %d does not resolve to a stored packet", fm.Key, id)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no flow packet ids observed")
	}
}
