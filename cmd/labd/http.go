package main

import (
	"context"
	"encoding/json"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/core"
	"campuslab/internal/obs"
)

// registerStoreGauges exposes the lab store's size statistics as gauges,
// refreshed at scrape time via a registry collector so an idle daemon
// costs nothing between scrapes.
func registerStoreGauges(lab *core.Lab) {
	obs.Default.RegisterCollector(func(e *obs.Emitter) {
		st := lab.Store().Stats()
		e.Gauge("campuslab_labd_store_packets", float64(st.Packets))
		e.Gauge("campuslab_labd_store_flows", float64(st.Flows))
		e.Gauge("campuslab_labd_store_events", float64(st.Events))
		e.Gauge("campuslab_labd_store_data_bytes", float64(st.DataBytes))
		e.Gauge("campuslab_labd_store_index_bytes", float64(st.IndexBytes))
		e.Gauge("campuslab_labd_store_span_seconds", st.Span.Seconds())
		e.Gauge("campuslab_labd_store_cold_packets", float64(st.ColdPackets))
		e.Gauge("campuslab_labd_store_cold_bytes", float64(st.ColdBytes))
		e.Gauge("campuslab_labd_store_segments", float64(st.Segments))
	})
}

// healthz is the liveness/readiness report: overall status, the model
// lifecycle's state, and the WAL backlog a crash right now would replay.
// Status degrades to "degraded" when the lifecycle is off-healthy and to
// "critical" when the WAL is wedged (new data is not crash-safe).
type healthz struct {
	Status    string `json:"status"`
	Lifecycle string `json:"lifecycle"`
	Durable   bool   `json:"durable"`
	WAL       struct {
		Attached bool   `json:"attached"`
		Records  uint64 `json:"lag_records"`
		Bytes    uint64 `json:"lag_bytes"`
		Segments int    `json:"segments"`
		Error    string `json:"error,omitempty"`
	} `json:"wal"`
	Tier struct {
		Enabled      bool   `json:"enabled"`
		Segments     int    `json:"segments"`
		ColdPackets  uint64 `json:"cold_packets"`
		ColdBytes    uint64 `json:"cold_bytes"`
		Corrupt      uint64 `json:"corrupt_segments,omitempty"`
		CacheHits    uint64 `json:"cache_hits,omitempty"`
		CacheMisses  uint64 `json:"cache_misses,omitempty"`
		CacheBytes   int64  `json:"cache_bytes,omitempty"`
		CacheEntries int    `json:"cache_entries,omitempty"`
		DirHits      uint64 `json:"dir_hits,omitempty"`
		DirMisses    uint64 `json:"dir_misses,omitempty"`
		DirBytes     int64  `json:"dir_bytes,omitempty"`
		DirEntries   int    `json:"dir_entries,omitempty"`
		Error        string `json:"error,omitempty"`
	} `json:"tier"`
	StorePackets uint64 `json:"store_packets"`
}

func (s *server) health() healthz {
	var h healthz
	h.Status = "ok"
	h.Lifecycle = s.lifecycle.State().String()
	if s.lifecycle.State() != control.StateHealthy {
		h.Status = "degraded"
	}
	h.Durable = s.dataDir != ""
	ws := s.lab.Store().WALStats()
	h.WAL.Attached = ws.Attached
	h.WAL.Records = ws.Records
	h.WAL.Bytes = ws.Bytes
	h.WAL.Segments = ws.Segments
	if ws.Err != nil {
		h.WAL.Error = ws.Err.Error()
		h.Status = "critical"
	}
	// Cold-tier health: a sticky error means some history is unreadable or
	// the disk refused a seal — queries still serve everything else and
	// the unsealed rows stay hot and logged, so this degrades rather than
	// criticals.
	ts := s.lab.Store().TierStats()
	h.Tier.Enabled = ts.Enabled
	h.Tier.Segments = ts.Segments
	h.Tier.ColdPackets = ts.ColdPackets
	h.Tier.ColdBytes = ts.ColdBytes
	h.Tier.Corrupt = ts.CorruptSegments
	h.Tier.CacheHits = ts.CacheHits
	h.Tier.CacheMisses = ts.CacheMisses
	h.Tier.CacheBytes = ts.CacheBytes
	h.Tier.CacheEntries = ts.CacheEntries
	h.Tier.DirHits = ts.DirHits
	h.Tier.DirMisses = ts.DirMisses
	h.Tier.DirBytes = ts.DirBytes
	h.Tier.DirEntries = ts.DirEntries
	if ts.Err != nil {
		h.Tier.Error = ts.Err.Error()
		if h.Status == "ok" {
			h.Status = "degraded"
		}
	}
	h.StorePackets = s.lab.Store().Stats().Packets
	return h
}

// serveHTTP runs the diagnostics endpoint until ctx is cancelled:
// /metrics in Prometheus text format, /healthz as a JSON health report,
// /debug/pprof/* profiles, and /debug/trace as a JSON dump of recent
// slow-loop spans.
func serveHTTP(ctx context.Context, ln net.Listener, srv *server) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := srv.health()
		w.Header().Set("Content-Type", "application/json")
		if h.Status == "critical" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := obs.Default.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.Default.Tracer().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Printf("http: %v", err)
	}
}
