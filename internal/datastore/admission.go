package datastore

import (
	"errors"

	"campuslab/internal/obs"
	"campuslab/internal/traffic"
)

// Admission control bounds what ingest may add to the store so overload
// has a defined shape instead of unbounded growth: below the shed
// watermark every frame is accepted; between shed and full, low-priority
// frames (unlabeled/benign traffic) are dropped on the floor while labeled
// attack evidence still lands; at or past full, whole batches are refused
// with ErrOverloaded and nothing is acknowledged. Decisions depend only on
// store occupancy and the batch contents, so a replayed workload sheds
// identically every run.

// ErrOverloaded reports an ingest batch refused because the store is at
// its configured capacity. Nothing from the batch was stored or logged.
var ErrOverloaded = errors.New("datastore: overloaded")

// errFrameTooLarge refuses a batch with a frame over frame.MaxRecordData,
// which WAL replay and seals refuse. Nothing of it was stored or logged.
var errFrameTooLarge = errors.New("datastore: frame over the record size cap")

// AdmitState is the ingest gate's current posture.
type AdmitState int32

const (
	// admitAccept: occupancy below the shed watermark; everything lands.
	admitAccept AdmitState = iota
	// admitShed: occupancy between shed watermark and capacity;
	// low-priority (benign-labeled) frames are dropped, the rest land.
	admitShed
	// admitReject: at or beyond capacity; batches fail with ErrOverloaded.
	admitReject
)

// String names the state.
func (a AdmitState) String() string {
	switch a {
	case admitAccept:
		return "accept"
	case admitShed:
		return "shed"
	default:
		return "reject"
	}
}

// AdmissionConfig bounds the store. The zero value (no limits) disables
// the gate entirely — the historical unbounded behavior.
type AdmissionConfig struct {
	// MaxPackets caps stored packets (0 = unlimited).
	MaxPackets uint64
	// MaxBytes caps stored raw packet bytes (0 = unlimited).
	MaxBytes uint64
	// ShedAt is the occupancy fraction (of whichever cap is nearest)
	// where shedding starts (default 0.85).
	ShedAt float64
}

func (c AdmissionConfig) enabled() bool { return c.MaxPackets > 0 || c.MaxBytes > 0 }

// Ingest admission metrics — the campuslab_ingest_* series an operator
// watches to see the gate working before the store falls over.
var (
	obsIngestAdmitted = obs.Default.Counter("campuslab_ingest_admitted_total")
	obsIngestShed     = obs.Default.Counter("campuslab_ingest_shed_total")
	obsIngestRejected = obs.Default.Counter("campuslab_ingest_rejected_batches_total")
	obsIngestState    = obs.Default.Gauge("campuslab_ingest_state")
)

// SetAdmission installs (or, with the zero config, removes) the ingest
// gate. Every acknowledged path enforces it: AddBatch, its siblings and
// IngestFrame all go through the one ingest funnel, which admits first.
func (s *Store) SetAdmission(cfg AdmissionConfig) {
	if cfg.ShedAt <= 0 || cfg.ShedAt >= 1 {
		cfg.ShedAt = 0.85
	}
	s.admissionMu.Lock()
	s.admission = cfg
	s.admissionMu.Unlock()
}

// admissionConfig snapshots the gate config.
func (s *Store) admissionConfig() AdmissionConfig {
	s.admissionMu.RLock()
	defer s.admissionMu.RUnlock()
	return s.admission
}

// admissionState reports the gate's posture at current occupancy.
func (s *Store) admissionState() AdmitState {
	return admitState(s.admissionConfig(), s.totPackets.Load(), s.totBytes.Load())
}

// admitState computes the posture from occupancy: the tightest cap wins.
func admitState(cfg AdmissionConfig, packets, bytes uint64) AdmitState {
	if !cfg.enabled() {
		return admitAccept
	}
	frac := 0.0
	if cfg.MaxPackets > 0 {
		frac = float64(packets) / float64(cfg.MaxPackets)
	}
	if cfg.MaxBytes > 0 {
		if f := float64(bytes) / float64(cfg.MaxBytes); f > frac {
			frac = f
		}
	}
	switch {
	case frac >= 1:
		return admitReject
	case frac >= cfg.ShedAt:
		return admitShed
	default:
		return admitAccept
	}
}

// lowPriority classifies a frame for shedding: ground-truth-labeled attack
// traffic is the evidence the development loop exists for and is kept;
// everything else is the first to go under pressure.
func lowPriority(f *traffic.Frame) bool { return f.Label == traffic.LabelBenign }

// IngestResult reports one admitted batch.
type IngestResult struct {
	// First is the ID of the first stored frame (meaningless when
	// Ingested == 0); stored frames take consecutive IDs.
	First PacketID
	// Ingested counts frames stored (and WAL-logged, when attached).
	Ingested int
	// Shed counts low-priority frames dropped by the gate.
	Shed int
	// State is the gate posture that applied to this batch.
	State AdmitState
}

// admitBatch applies the gate to a batch, returning the frames (and
// parallel links) to store plus the shed count. A nil return with
// ErrOverloaded means the whole batch was refused.
func (s *Store) admitBatch(frames []traffic.Frame, links []uint16) ([]traffic.Frame, []uint16, int, AdmitState, error) {
	if len(frames) == 0 {
		// A zero-frame batch stores nothing and must never be refused:
		// streaming collectors submit a trailing flush unconditionally,
		// and failing it would report ErrOverloaded for data that was
		// already acknowledged.
		return frames, links, 0, admitAccept, nil
	}
	cfg := s.admissionConfig()
	if !cfg.enabled() {
		return frames, links, 0, admitAccept, nil
	}
	state := admitState(cfg, s.totPackets.Load(), s.totBytes.Load())
	obsIngestState.Set(float64(state))
	switch state {
	case admitAccept:
		obsIngestAdmitted.Add(uint64(len(frames)))
		return frames, links, 0, state, nil
	case admitReject:
		obsIngestRejected.Inc()
		return nil, nil, 0, state, ErrOverloaded
	}
	// Shed: keep high-priority frames only, preserving order.
	kept := make([]traffic.Frame, 0, len(frames))
	var keptLinks []uint16
	if links != nil {
		keptLinks = make([]uint16, 0, len(frames))
	}
	for i := range frames {
		if lowPriority(&frames[i]) {
			continue
		}
		kept = append(kept, frames[i])
		if links != nil {
			keptLinks = append(keptLinks, links[i])
		}
	}
	shed := len(frames) - len(kept)
	obsIngestShed.Add(uint64(shed))
	obsIngestAdmitted.Add(uint64(len(kept)))
	return kept, keptLinks, shed, state, nil
}
