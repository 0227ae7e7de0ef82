package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/detect"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/telemetry"
	"campuslab/internal/traffic"
)

// e13MultiTask runs four concurrent automation tasks over one scenario,
// each at the compute tier its state requires — §2's observation that
// resource allocation "will depend on how fast and with what accuracy that
// task has to be performed", demonstrated across the whole task spectrum:
//
//	dns-amp    per-packet signature    -> dataplane match-action (E5)
//	syn-flood  per-victim counters     -> dataplane sketch registers
//	port-scan  per-source fan-out      -> control-plane windows
//	beacon     per-pair periodicity    -> offline data-store analytics
func e13MultiTask() (*Table, error) {
	plan := traffic.DefaultPlan(40)
	campus := plan.CampusPrefix
	infected := plan.Host(12)
	floodVictim := plan.Host(20)
	mk := func(seed int64) *datastore.Store {
		benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 50, Duration: 10 * time.Second, Seed: seed})
		amp := traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(5),
			Start: time.Second, Duration: 4 * time.Second, Rate: 600, Seed: seed + 1,
		})
		flood := traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelSYNFlood, Plan: plan, Victim: floodVictim,
			Start: 3 * time.Second, Duration: 3 * time.Second, Rate: 2000, Seed: seed + 2,
		})
		scan := traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelPortScan, Plan: plan,
			Start: 2 * time.Second, Duration: 6 * time.Second, Rate: 400, Seed: seed + 3,
		})
		beacon := traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelBeacon, Plan: plan, Victim: infected,
			Start: 0, Duration: 10 * time.Second, Rate: 3600, Seed: seed + 4,
		})
		st := datastore.New()
		g := traffic.NewMerge(benign, amp, flood, scan, beacon)
		var f traffic.Frame
		for g.Next(&f) {
			st.IngestFrame(&f)
		}
		return st
	}
	trainStore := mk(1801)
	replayStore := mk(1901)

	t := &Table{
		ID:      "E13",
		Title:   "four concurrent automation tasks, one scenario, each at its natural tier",
		Columns: []string{"task", "placement", "state", "outcome"},
	}

	// Task 1: DNS amplification — per-packet program (the E5 pipeline).
	{
		ds := features.FromPackets(trainStore, 1.0).BinaryRelabel(traffic.LabelDNSAmp)
		forest, err := ml.FitForest(ds, 2, ml.ForestConfig{Trees: 20, MaxDepth: 8, Seed: 1802, Workers: workers()})
		if err != nil {
			return nil, err
		}
		var hit, total int
		replayStore.Scan(func(sp *datastore.StoredPacket) bool {
			if sp.Label == traffic.LabelDNSAmp {
				total++
				v := make([]float64, len(features.PacketSchema))
				features.PacketVector(&sp.Summary, v)
				if forest.Predict(v) == 1 {
					hit++
				}
			}
			return true
		})
		t.addRow("dns-amp", "dataplane (match-action)", "~50 TCAM entries",
			fmt.Sprintf("per-packet recall %s", pct(float64(hit)/float64(total))))
	}

	// Task 2: SYN flood — heavy-hitter sketch over bare-SYN destinations
	// (fits dataplane registers; no model needed).
	{
		hh, err := telemetry.NewHeavyHitters(32)
		if err != nil {
			return nil, err
		}
		addrOf := map[uint64]netip.Addr{}
		replayStore.Scan(func(sp *datastore.StoredPacket) bool {
			s := &sp.Summary
			if s.HasTCP && s.TCPFlags == 2 /* bare SYN */ && campus.Contains(s.Tuple.DstIP) {
				k := uint64(s.Tuple.DstIP.As4()[0])<<24 | uint64(s.Tuple.DstIP.As4()[1])<<16 |
					uint64(s.Tuple.DstIP.As4()[2])<<8 | uint64(s.Tuple.DstIP.As4()[3])
				hh.Add(k, 1)
				addrOf[k] = s.Tuple.DstIP
			}
			return true
		})
		top := hh.Top(1)
		outcome := "victim not found"
		if len(top) > 0 && addrOf[top[0].Key] == floodVictim {
			outcome = fmt.Sprintf("victim %v identified (%d SYNs, err<=%d)", floodVictim, top[0].Count, top[0].Err)
		}
		t.addRow("syn-flood", "dataplane (sketch registers)", "32-entry space-saving", outcome)
	}

	// Task 3: port scan — streaming source-window detector (control plane).
	{
		ds := features.FromSourceWindows(trainStore, features.SourceWindowConfig{Window: time.Second, Campus: campus})
		forest, err := ml.FitForest(ds, int(traffic.NumLabels), ml.ForestConfig{Trees: 20, MaxDepth: 8, Seed: 1803, Workers: workers()})
		if err != nil {
			return nil, err
		}
		det, err := detect.NewScanDetector(detect.ScanDetectorConfig{
			Model: forest, Window: time.Second, Campus: campus, Threshold: 0.8,
		})
		if err != nil {
			return nil, err
		}
		replayStore.Scan(func(sp *datastore.StoredPacket) bool {
			det.Observe(sp.TS, &sp.Summary)
			return true
		})
		alerts := det.Finish()
		truth := map[netip.Addr]bool{}
		replayStore.Scan(func(sp *datastore.StoredPacket) bool {
			if sp.Label == traffic.LabelPortScan && sp.Actor {
				truth[sp.Summary.Tuple.SrcIP] = true
			}
			return true
		})
		correct := 0
		for _, a := range alerts {
			if truth[a.Source] {
				correct++
			}
		}
		t.addRow("port-scan", "control plane (windows)", "per-source dst/port sets",
			fmt.Sprintf("%d/%d scanners convicted, %d false", correct, len(truth), len(alerts)-correct))
	}

	// Task 4: beacon — retrospective periodicity hunt over the store.
	{
		findings := detect.HuntBeacons(replayStore, detect.BeaconConfig{Campus: campus})
		outcome := "no findings"
		if len(findings) > 0 {
			hit := findings[0].Pair.Host == infected
			outcome = fmt.Sprintf("top finding %v (correct=%v): %s", findings[0].Pair.Host, hit, findings[0].Evidence)
		}
		t.addRow("beacon", "offline (data store)", "per-pair connection history", outcome)
	}

	t.Notes = append(t.Notes,
		"expected shape: the volumetric tasks fit the data plane (signature or sketch); fan-out needs controller state; periodicity is only visible in the retained store — one campus, four tasks, three tiers, which is the paper's resource-allocation argument in one table")
	return t, nil
}
