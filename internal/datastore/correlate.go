package datastore

import (
	"net/netip"
	"regexp"
	"sort"
	"time"

	"campuslab/internal/eventlog"
)

// §5 promises a store where packet data is "linked" to complementary
// sensor data. Correlation joins sensor events to flows on (address, time
// window): a firewall deny naming 198.51.100.7 at t links to every flow
// touching that address within the window around t.

// Correlation is one (event, flow) link.
type Correlation struct {
	Event eventlog.Event
	Flow  FlowMeta
	// Gap is |event time - nearest flow activity|, the join quality.
	Gap time.Duration
}

// ipInMessage extracts dotted-quad addresses from event text.
var ipInMessage = regexp.MustCompile(`\b(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})\b`)

// CorrelateEvents links each stored event to flows that involve an IP
// address mentioned in the event's message and that were active within
// ±window of the event. Results are ordered by event time.
func (s *Store) CorrelateEvents(window time.Duration) []Correlation {
	if window <= 0 {
		window = 5 * time.Second
	}
	unlock := s.rlockAll()
	defer unlock()
	s.eventsMu.RLock()
	defer s.eventsMu.RUnlock()

	// Index flows by endpoint address. Each address's flow list is sorted
	// deterministically so results don't depend on shard layout.
	byAddr := make(map[netip.Addr][]*FlowMeta)
	for _, sh := range s.shards {
		for _, fm := range sh.flows {
			byAddr[fm.Key.SrcIP] = append(byAddr[fm.Key.SrcIP], fm)
			byAddr[fm.Key.DstIP] = append(byAddr[fm.Key.DstIP], fm)
		}
	}
	for _, fms := range byAddr {
		sort.Slice(fms, func(i, j int) bool { return flowBefore(fms[i], fms[j]) })
	}

	var out []Correlation
	for _, ev := range s.events {
		for _, m := range ipInMessage.FindAllString(ev.Message, -1) {
			addr, err := netip.ParseAddr(m)
			if err != nil {
				continue
			}
			for _, fm := range byAddr[addr] {
				// Active within the window?
				if fm.Last < ev.TS-window || fm.First > ev.TS+window {
					continue
				}
				gap := time.Duration(0)
				if fm.Last < ev.TS {
					gap = ev.TS - fm.Last
				} else if fm.First > ev.TS {
					gap = fm.First - ev.TS
				}
				out = append(out, Correlation{Event: ev, Flow: *fm, Gap: gap})
			}
		}
	}
	return out
}
