package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/privacy"
	"campuslab/internal/traffic"
)

// collectTiered is Figure 1's left half the way labd runs it: a campus +
// DNS-amplification episode of large packets goes, in Collect's 4096-frame
// batches, through privacy enforcement into a recovered store with a WAL
// and a cold tier, and every cycle the harness does what labd's timers do
// (checkpoint, compact, retain). Packets average 1.4 KB, so bytes dominate:
// compaction and sealing (DEFLATE both ways) are 85% of the time, the
// checkpoint's copy of the hot slab 5%, per-packet work a tenth. A tier or
// WAL change shows here; a per-packet one barely does.
type collectTiered struct {
	frames []traffic.Frame
	batch  int // frames per batch
	enf    *privacy.Enforcer

	durableStore     // what the newest round left, for verify
	ingested     int // packets acked in that round
	retained     int // packets RetainCold deleted in that round
}

const (
	collectBatch   = 4096 // core.Lab.Collect's batch
	collectBatches = 16   // per round
	collectCycle   = 8    // batches between maintenance calls
	collectHot     = 8    // hot-tier cap, in batches: a seal every fifth batch
	collectSegment = 2    // segment size, in batches
)

func (c *collectTiered) tailPct() float64 { return 90 }

func (c *collectTiered) sizes() map[string]int {
	return map[string]int{
		"frames": len(c.frames), "batch": c.batch, "batches_per_round": collectBatches,
		"cycle_batches": collectCycle, "hot_packets": collectHot * c.batch, "segment_packets": collectSegment * c.batch,
	}
}

func (c *collectTiered) setup(e *env) error {
	c.close()
	c.batch = scaled(collectBatch, e.scale, 64)
	plan := traffic.DefaultPlan(40)
	frames, err := generate(e, episodeSpec{
		plan: plan, flows: 120, span: 10 * time.Second,
		attacks: []attackSpec{{traffic.LabelDNSAmp, 1500}},
		frames:  collectBatches * c.batch, campusSeed: 1100, seed: e.seed,
	})
	if err != nil {
		return err
	}
	c.frames = frames
	c.enf, err = privacy.NewEnforcer(privacy.Policy{Name: "bench", Scope: privacy.AnonAll}, benchKey(e.seed))
	return err
}

func (c *collectTiered) durable() datastore.DurableConfig {
	return datastore.DurableConfig{
		Dir: c.dir, Fsync: datastore.FsyncInterval, Shards: 4, Workers: 1,
		Tier: datastore.TierPolicy{
			Dir: filepath.Join(c.dir, "tier"), HotPackets: uint64(collectHot * c.batch), SegmentPackets: collectSegment * c.batch,
			MinSealPackets: uint64(c.batch / 16),
		},
	}
}

// dirFiles maps the regular files of dir to their sizes.
func dirFiles(dir string) map[string]int64 {
	out := map[string]int64{}
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			out[ent.Name()] = info.Size()
		}
	}
	return out
}

// newBytes sums the files of after that before lacks and returns after.
func newBytes(before, after map[string]int64) (n int64) {
	for name, size := range after {
		if _, ok := before[name]; !ok {
			n += size
		}
	}
	return n
}

func (c *collectTiered) round(e *env, tr *tracer) (roundResult, error) {
	c.close()
	var err error
	if c.dir, err = e.dir("collect"); err != nil {
		return roundResult{}, err
	}
	cfg := c.durable()
	st, _, err := datastore.Recover(cfg)
	if err != nil {
		return roundResult{}, err
	}
	c.st = st
	c.ingested, c.retained = 0, 0

	before := readIngestCounters(c.enf)

	res := roundResult{counts: map[string]float64{}}
	d := newDigest()
	var segBytes, rewriteBytes, ckptBytes int64
	var retainedSegs int
	tierFiles := dirFiles(cfg.Tier.Dir)
	seals := uint64(0)
	batch := make([]traffic.Frame, 0, c.batch)
	var lastTS time.Duration
	retainSpan := c.frames[len(c.frames)-1].TS / 2

	for b := 0; b < collectBatches; b++ {
		in := c.frames[b*c.batch : (b+1)*c.batch]
		if e.sabotage == "drop-batch" && b == 1 {
			res.ops += len(in) // claimed, never sent: verify must notice
			continue
		}
		t0 := time.Now()
		tr.begin("privacy.apply", b)
		batch = batch[:0]
		for _, f := range in {
			out, err := c.enf.Apply(f.Data)
			if err != nil {
				out = f.Data // Collect stores unparseable frames as they came
			}
			f.Data = out
			batch = append(batch, f)
		}
		tr.end()
		tr.begin("datastore.add_batch", b)
		ack, err := st.AddBatchAdmit(batch, 1)
		ts := st.TierStats()
		if ts.Seals != seals {
			tr.rename("datastore.add_batch_seal")
		}
		tr.end()
		dt := time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("batch %d: %w", b, err)
		}
		res.secs += dt.Seconds()
		res.groups = append(res.groups, dt.Seconds())
		res.ops += ack.Ingested
		res.failed += len(in) - ack.Ingested
		c.ingested += ack.Ingested
		d.u64(uint64(ack.First), uint64(ack.Ingested), uint64(ack.Shed))
		lastTS = in[len(in)-1].TS
		if ts.Seals != seals {
			seals = ts.Seals
			now := dirFiles(cfg.Tier.Dir)
			segBytes += newBytes(tierFiles, now)
			tierFiles = now
		}

		if (b+1)%collectCycle == 0 {
			// labd's timers, made deterministic: checkpoint, compact, retain.
			t0 := time.Now()
			tr.begin("datastore.checkpoint", b)
			err := st.CheckpointDir(c.dir)
			tr.end()
			if err != nil {
				return res, fmt.Errorf("checkpoint: %w", err)
			}
			tr.begin("datastore.compact", b)
			_, err = st.CompactTier()
			tr.end()
			if err != nil {
				return res, fmt.Errorf("compact: %w", err)
			}
			cold0 := st.TierStats().ColdPackets
			tr.begin("datastore.retain", b)
			n, err := st.RetainCold(lastTS - retainSpan)
			tr.end()
			if err != nil {
				return res, fmt.Errorf("retain: %w", err)
			}
			res.secs += time.Since(t0).Seconds()
			retainedSegs += n
			c.retained += int(cold0 - st.TierStats().ColdPackets)
			for name, size := range dirFiles(c.dir) {
				if filepath.Ext(name) == ".clds" {
					ckptBytes += size
				}
			}
			now := dirFiles(cfg.Tier.Dir)
			rewriteBytes += newBytes(tierFiles, now)
			tierFiles = now
		}
		e.clk.tick()
	}

	stats, ts := st.Stats(), st.TierStats()
	d.u64(stats.Packets, stats.Flows, stats.DataBytes, ts.ColdPackets, ts.ColdBytes, ts.Seals, ts.SealedPackets, uint64(ts.Segments), ts.Compactions)
	storeSample(d, st)
	res.fp = d.sum()

	pkts := float64(c.ingested)
	k := res.counts
	walBytes := before.since(k, c.enf, st, pkts)
	k["wal.checkpoint_bytes"] = float64(ckptBytes)
	k["tier.seals"] = float64(ts.Seals)
	k["tier.sealed_pkts"] = float64(ts.SealedPackets)
	k["tier.segments"] = float64(ts.Segments)
	k["tier.compactions"] = float64(ts.Compactions)
	k["tier.compact_rewrite_bytes"] = float64(rewriteBytes)
	k["tier.retained_segments"] = float64(retainedSegs)
	k["write_bytes_per_pkt"] = ratio(walBytes+float64(ckptBytes+segBytes+rewriteBytes), pkts)
	k["cold_bytes_per_pkt"] = ratio(float64(ts.ColdBytes), float64(ts.ColdPackets))
	return res, nil
}

func (c *collectTiered) layers(rt roundTotals, r roundResult) map[string]float64 {
	plain, sealing := rt.byName["datastore.add_batch"], rt.byName["datastore.add_batch_seal"]
	nPlain, nSealing := float64(rt.count["datastore.add_batch"]), float64(rt.count["datastore.add_batch_seal"])
	perCall := func(name string) float64 { return ratio(rt.byName[name], float64(rt.count[name])) * 1e3 }
	return map[string]float64{
		"privacy.apply_ns_per_pkt": ratio(rt.byName["privacy.apply"], float64(r.ops)) * 1e9,
		"ingest.ns_per_pkt":        ratio(plain, nPlain*float64(c.batch)) * 1e9,
		// What a seal adds to the batch it rides on, per 1000 packets
		// sealed: sealing-batch time less the mean plain batch.
		"tier.seal_ms_per_kpkt": ratio(sealing-nSealing*ratio(plain, nPlain), r.counts["tier.sealed_pkts"]/1e3) * 1e3,
		"wal.checkpoint_ms":     perCall("datastore.checkpoint"),
		"tier.compact_ms":       perCall("datastore.compact"),
		"tier.retain_ms":        perCall("datastore.retain"),
	}
}

func (c *collectTiered) probe(*env, map[string]float64) error { return nil }

// verify proves acked ⇒ recoverable on the directory the last round left:
// the WAL is closed without a checkpoint, the directory recovered, and
// every packet acked and not retained away must be there exactly once.
func (c *collectTiered) verify(e *env, m map[string]float64) (int, error) {
	return c.verifyRecovery(e, m, c.durable(), c.ingested-c.retained, len(c.frames)-c.retained)
}
