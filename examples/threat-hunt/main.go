// Threat hunt: a security analyst's session against the campus data store.
// Everything §5 promises the store enables happens in one sitting:
// retrospective beacon hunting over retained history, firewall logs linked
// to the stored flows, streaming scan detection, filter-language triage
// queries, an explanation with a counterfactual for the operator, and a
// differentially-private aggregate release for a cross-campus
// collaboration.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/detect"
	"campuslab/internal/eventlog"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/privacy"
	"campuslab/internal/traffic"
	"campuslab/internal/xai"
)

func main() {
	log.SetFlags(0)
	plan := traffic.DefaultPlan(40)
	campus := plan.CampusPrefix
	infected := plan.Host(12)

	// A day of traffic with a scan, a beacon, and an amplification attack
	// buried in it — already collected into the store.
	st := datastore.New()
	g := traffic.NewMerge(
		traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 50, Duration: 10 * time.Second, Seed: 61}),
		traffic.NewAttack(traffic.AttackConfig{Kind: traffic.LabelPortScan, Plan: plan,
			Start: 2 * time.Second, Duration: 5 * time.Second, Rate: 400, Seed: 62}),
		traffic.NewAttack(traffic.AttackConfig{Kind: traffic.LabelBeacon, Plan: plan,
			Victim: infected, Duration: 10 * time.Second, Rate: 3600, Seed: 63}),
		traffic.NewAttack(traffic.AttackConfig{Kind: traffic.LabelDNSAmp, Plan: plan,
			Victim: plan.Host(5), Start: time.Second, Duration: 3 * time.Second, Rate: 500, Seed: 64}),
	)
	var f traffic.Frame
	for g.Next(&f) {
		st.IngestFrame(&f)
	}
	stats := st.Stats()
	fmt.Printf("data store: %d packets, %d flows over %v\n\n", stats.Packets, stats.Flows, stats.Span.Round(time.Second))

	// 1. Triage with the filter language.
	for _, expr := range []string{
		"dns && dns.qtype == ANY && len > 800",
		"tcp.syn && !tcp.ack && dst.port == 3389",
	} {
		n := st.Count(datastore.MustFilter(expr))
		fmt.Printf("triage %-46q %6d packets\n", expr, n)
	}

	// 2. Retrospective beacon hunt over the retained history.
	fmt.Println("\nbeacon hunt (periodicity over the whole store):")
	beacons := detect.HuntBeacons(st, detect.BeaconConfig{Campus: campus})
	for _, finding := range beacons {
		fmt.Printf("  %v -> %v  score %.2f  (%s)\n",
			finding.Pair.Host, finding.Pair.Peer, finding.Score, finding.Evidence)
	}

	// 3. Link complementary sensor data (§5): the border firewall's log —
	// the sensor model's background entries plus the denies it wrote for
	// each controller the hunt named — joins the stored flows on (address,
	// time). The analyst labels every joined flow of the infected host and
	// pulls the packet that opened it.
	fwlog := eventlog.NewGenerator(eventlog.GeneratorConfig{Rate: 5, Seed: 69}).Generate(10 * time.Second)
	for _, finding := range beacons {
		for ts := time.Second; ts < 10*time.Second; ts += 3 * time.Second {
			fwlog = append(fwlog, eventlog.Event{TS: ts, Source: eventlog.SourceFirewall, Host: "fw-border",
				Severity: eventlog.SevWarning, Message: fmt.Sprintf("deny tcp %v:443 (threat intel)", finding.Pair.Peer)})
		}
	}
	st.AddEvents(fwlog)
	fmt.Printf("\nfirewall log (%d events) joined to %v's flows:\n", len(fwlog), infected)
	joined := 0
	for _, c := range st.CorrelateEvents(2 * time.Second) {
		if c.Flow.Key.SrcIP != infected && c.Flow.Key.DstIP != infected {
			continue
		}
		if err := st.LabelFlow(c.Flow.Key, traffic.LabelBeacon); err != nil {
			log.Fatal(err)
		}
		if joined++; joined <= 3 {
			k := c.Flow.Key
			opener := datastore.MustFilter(fmt.Sprintf(
				"proto == %d && ((src.ip == %v && src.port == %d && dst.ip == %v && dst.port == %d) ||"+
					" (src.ip == %v && src.port == %d && dst.ip == %v && dst.port == %d))",
				k.Proto, k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.DstIP, k.DstPort, k.SrcIP, k.SrcPort))
			first := st.Select(opener, 1)[0]
			fmt.Printf("  %v %q: flow %v, %d packets, gap %v, opened by a %d-byte packet at %v\n",
				c.Event.TS, c.Event.Message, c.Flow.Key, c.Flow.Packets, c.Gap, first.Summary.WireLen, first.TS)
		}
	}
	fmt.Printf("  %d event-flow links; every joined flow labeled %v\n", joined, traffic.LabelBeacon)

	// 4. Streaming scan detection (what the control plane would run live).
	ds := features.FromSourceWindows(st, features.SourceWindowConfig{Window: time.Second, Campus: campus})
	forest, err := ml.FitForest(ds, int(traffic.NumLabels), ml.ForestConfig{Trees: 20, MaxDepth: 8, Seed: 65})
	if err != nil {
		log.Fatal(err)
	}
	det, err := detect.NewScanDetector(detect.ScanDetectorConfig{
		Model: forest, Window: time.Second, Campus: campus, Threshold: 0.8,
	})
	if err != nil {
		log.Fatal(err)
	}
	st.Scan(func(sp *datastore.StoredPacket) bool {
		det.Observe(sp.TS, &sp.Summary)
		return true
	})
	fmt.Println("\nscan detector convictions:")
	for _, a := range det.Finish() {
		fmt.Printf("  %v at %v (confidence %.2f over %d windows)\n",
			a.Source, a.At.Round(time.Millisecond), a.Confidence, a.Windows)
	}

	// 5. Explain one amplification packet and ask for its counterfactual.
	pkts, err := st.SelectExpr("dns && dns.qtype == ANY && len > 800", 1)
	if err != nil || len(pkts) == 0 {
		log.Fatal("no amplification packet found")
	}
	pktDS := features.FromPackets(st, 1.0).BinaryRelabel(traffic.LabelDNSAmp)
	ampForest, err := ml.FitForest(pktDS, 2, ml.ForestConfig{Trees: 20, MaxDepth: 8, Seed: 66})
	if err != nil {
		log.Fatal(err)
	}
	ex, err := xai.Extract(ampForest, pktDS, xai.ExtractConfig{MaxDepth: 4, Seed: 67})
	if err != nil {
		log.Fatal(err)
	}
	x := make([]float64, len(features.PacketSchema))
	features.PacketVector(&pkts[0].Summary, x)
	ev := xai.Explain(ex.Tree, features.PacketSchema, x)
	fmt.Printf("\nwhy was this packet flagged?\n  %s\n", ev)
	if fm, ok := st.Flow(pkts[0].Summary.Tuple); ok {
		fmt.Printf("  (one of %d packets in flow %v, labeled %v)\n", fm.Packets, fm.Key, fm.Label)
	}
	if cf, ok := xai.FindCounterfactual(ex.Tree, features.PacketSchema, x, 0, nil); ok {
		fmt.Printf("what would make it benign?\n  %s\n", cf)
	}

	// 6. Release an aggregate to a cross-campus collaboration under DP.
	budget, err := privacy.NewReleaseBudget(1.0, 68)
	if err != nil {
		log.Fatal(err)
	}
	byClass := map[string]float64{}
	for label, n := range st.LabelCounts() {
		byClass[label.String()] = float64(n)
	}
	released, err := budget.ReleaseHistogram(byClass, 1, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nDP release of the flow-class histogram (eps=0.5):")
	classes := make([]string, 0, len(released))
	for k := range released {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	for _, k := range classes {
		fmt.Printf("  %-10s ~%.0f flows\n", k, released[k])
	}
	fmt.Printf("privacy budget remaining: %.2f\n", budget.Remaining())
}
