// Package detect holds the stateful automation tasks that cannot run in
// the data plane: scan detection (needs per-source fan-out state across
// packets) and beacon hunting (needs per-pair periodicity across hours of
// retained data). Together with the per-packet DNS-amp program they form
// the multi-task suite of §2 — each task with a different natural compute
// placement, which is the paper's resource-allocation argument.
package detect

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// ScanDetectorConfig wires a streaming scan detector.
type ScanDetectorConfig struct {
	// Model classifies SourceWindowSchema vectors (class index =
	// traffic.Label value; LabelPortScan is the trigger class).
	Model ml.Classifier
	// Window/Campus as in features.SourceWindowConfig.
	Window time.Duration
	Campus netip.Prefix
	// Threshold is the per-window confidence required to flag a source.
	Threshold float64
}

// confirmWindows is how many flagged windows convict a source: one noisy
// window must not block anyone.
const confirmWindows = 2

// ScanAlert reports one convicted scanning source.
type ScanAlert struct {
	Source     netip.Addr
	At         time.Duration // conviction time (window close)
	Confidence float64       // mean over flagged windows
	Windows    int
}

// ScanDetector consumes a packet stream and convicts scanning sources.
// This task is control-plane-only by construction: its state (per-source
// destination/port sets) does not fit match-action tables.
type ScanDetector struct {
	cfg       ScanDetectorConfig
	tracker   *features.SourceWindowTracker
	flagged   map[netip.Addr][]float64
	convicted map[netip.Addr]bool
	alerts    []ScanAlert
}

// NewScanDetector validates cfg and builds the detector.
func NewScanDetector(cfg ScanDetectorConfig) (*ScanDetector, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("detect: Model is required")
	}
	if cfg.Threshold <= 0 || cfg.Threshold > 1 {
		cfg.Threshold = 0.8
	}
	return &ScanDetector{
		cfg: cfg,
		tracker: features.NewSourceWindowTracker(features.SourceWindowConfig{
			Window: cfg.Window, Campus: cfg.Campus,
		}),
		flagged:   make(map[netip.Addr][]float64),
		convicted: make(map[netip.Addr]bool),
	}, nil
}

// Observe feeds one packet; returns any new convictions.
func (d *ScanDetector) Observe(ts time.Duration, s *packet.Summary) []ScanAlert {
	return d.process(ts, d.tracker.Observe(ts, s))
}

// Finish flushes the open window and returns all alerts so far.
func (d *ScanDetector) Finish() []ScanAlert {
	d.process(0, d.tracker.Flush())
	return d.alerts
}

func (d *ScanDetector) process(ts time.Duration, closed []features.SourceWindowResult) []ScanAlert {
	var newAlerts []ScanAlert
	for _, res := range closed {
		if d.convicted[res.Src] {
			continue
		}
		proba := d.cfg.Model.Proba(res.Vector)
		scanConf := 0.0
		if int(traffic.LabelPortScan) < len(proba) {
			scanConf = proba[traffic.LabelPortScan]
		}
		if scanConf < d.cfg.Threshold {
			continue
		}
		d.flagged[res.Src] = append(d.flagged[res.Src], scanConf)
		if len(d.flagged[res.Src]) >= confirmWindows {
			var sum float64
			for _, c := range d.flagged[res.Src] {
				sum += c
			}
			alert := ScanAlert{
				Source:     res.Src,
				At:         ts,
				Confidence: sum / float64(len(d.flagged[res.Src])),
				Windows:    len(d.flagged[res.Src]),
			}
			d.convicted[res.Src] = true
			d.alerts = append(d.alerts, alert)
			newAlerts = append(newAlerts, alert)
		}
	}
	return newAlerts
}

// BeaconConfig tunes the retrospective beacon hunt.
type BeaconConfig struct {
	// Campus identifies internal hosts.
	Campus netip.Prefix
}

// The beacon heuristic scores a pair with at least 4 connections whose
// inter-connection gaps vary less than maxGapCV (real beacons jitter
// ~5-15%) and whose connections carry at most maxMeanBytes each: beacons
// are small and regular.
const (
	maxGapCV     = 0.25
	maxMeanBytes = 4096
)

// BeaconFinding reports one suspected C&C pair with its evidence — the
// §5-style operator listing.
type BeaconFinding struct {
	Pair     features.PairID
	Score    float64 // heuristic margin: perfect periodicity scores 1
	Evidence string
}

// HuntBeacons scans the data store for periodic low-volume pairs. This is
// the retrospective, store-powered task: it is only possible because the
// campus retains everything (Figure 1's data-source half).
func HuntBeacons(st *datastore.Store, cfg BeaconConfig) []BeaconFinding {
	ds, ids := features.FromPairs(st, features.PairConfig{
		Campus: cfg.Campus, MinConnections: 4,
	})
	var out []BeaconFinding
	for i, id := range ids {
		v := ds.X[i]
		connCount, meanGap, gapCV := v[0], v[1], v[2]
		meanBytes := v[3]
		if gapCV > maxGapCV || meanBytes > maxMeanBytes {
			continue
		}
		score := 1 - gapCV/maxGapCV
		out = append(out, BeaconFinding{
			Pair:  id,
			Score: score,
			Evidence: fmt.Sprintf("%d connections every %.1fs (cv %.3f), %.0fB each",
				int(connCount), meanGap, gapCV, meanBytes),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Pair.Host.Compare(out[j].Pair.Host) < 0
	})
	return out
}
