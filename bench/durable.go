package main

import (
	"fmt"
	"os"

	"campuslab/internal/datastore"
	"campuslab/internal/privacy"
)

// durableStore is the recovered store a writer workload's newest round
// left open, and its directory, kept for verification.
type durableStore struct {
	st  *datastore.Store
	dir string
}

// close detaches the log and removes the directory.
func (d *durableStore) close() {
	if d.st != nil {
		d.st.CloseWAL()
		d.st = nil
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
		d.dir = ""
	}
}

// ingestCounters is a reading of the registry series and enforcer totals
// both writer workloads report as per-round deltas.
type ingestCounters struct {
	walBytes, walAppends, walSyncs, batches, shed, rejected float64
	privIn, privOut                                         uint64
}

func readIngestCounters(enf *privacy.Enforcer) ingestCounters {
	_, in, out := enf.Stats()
	return ingestCounters{
		walBytes:   counter("campuslab_wal_bytes_total"),
		walAppends: counter("campuslab_wal_appends_total"),
		walSyncs:   counter("campuslab_wal_syncs_total"),
		batches:    counter("campuslab_store_ingest_batches_total"),
		shed:       counter("campuslab_ingest_shed_total"),
		rejected:   counter("campuslab_ingest_rejected_batches_total"),
		privIn:     in, privOut: out,
	}
}

// since stores into k what moved since c0, per the pkts packets acked, and
// returns the WAL bytes appended.
func (c0 ingestCounters) since(k map[string]float64, enf *privacy.Enforcer, st *datastore.Store, pkts float64) (walBytes float64) {
	c := readIngestCounters(enf)
	stats := st.Stats()
	walBytes = c.walBytes - c0.walBytes
	k["privacy.bytes_out_per_in"] = ratio(float64(c.privOut-c0.privOut), float64(c.privIn-c0.privIn))
	k["ingest.batches"] = c.batches - c0.batches
	k["ingest.shed_pkts"] = c.shed - c0.shed
	k["ingest.rejected_batches"] = c.rejected - c0.rejected
	k["ingest.index_bytes_per_pkt"] = ratio(float64(stats.IndexBytes), float64(stats.Packets))
	k["wal.bytes_per_pkt"] = ratio(walBytes, pkts)
	k["wal.appends"] = c.walAppends - c0.walAppends
	k["wal.syncs"] = c.walSyncs - c0.walSyncs
	return walBytes
}

// verifyRecovery closes the store's log, recovers cfg.Dir in its place and
// checks that the recovered store holds `acked` packets (what the round
// was told is durable), that this is also `want` (what the harness sent
// and did not evict), and that no PacketID repeats. It returns the
// number of packets unaccounted for.
func (d *durableStore) verifyRecovery(e *env, m map[string]float64, cfg datastore.DurableConfig, acked, want int) (int, error) {
	if err := d.st.CloseWAL(); err != nil {
		return 0, fmt.Errorf("close wal: %w", err)
	}
	d.st = nil
	var rec *datastore.Store
	var rs datastore.RecoveryStats
	secs, err := e.timed(func() (err error) {
		rec, rs, err = datastore.Recover(cfg)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	d.st = rec
	m["recover_s"] = secs
	m["recover.snapshot_pkts"] = float64(rs.SnapshotPackets)
	m["recover.wal_records"] = float64(rs.WALRecords)
	m["recover.segments_attached"] = float64(rec.TierStats().Segments)

	stats := rec.Stats()
	have := int(stats.Packets + stats.ColdPackets)
	seen := make(map[datastore.PacketID]struct{}, have)
	dups := 0
	rec.Scan(func(sp *datastore.StoredPacket) bool {
		if _, dup := seen[sp.ID]; dup {
			dups++
		}
		seen[sp.ID] = struct{}{}
		return true
	})
	failed := dups + abs(have-acked) + abs(acked-want) + abs(len(seen)+dups-have)
	if rs.Torn {
		return max(failed, 1), fmt.Errorf("recovery found a torn log after a clean close")
	}
	if failed > 0 {
		return failed, fmt.Errorf("recovered %d packets (%d distinct, %d duplicate), acked %d, sent and kept %d", have, len(seen), dups, acked, want)
	}
	return 0, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
