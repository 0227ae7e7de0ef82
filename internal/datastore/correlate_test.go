package datastore

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"campuslab/internal/eventlog"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

func TestCorrelateEventsLinksByAddressAndTime(t *testing.T) {
	st := fillStore(t)
	// Pick a real flow endpoint from the store and synthesize a firewall
	// event naming it while the flow is active.
	flows := st.Flows()
	var target FlowMeta
	for _, fm := range flows {
		if fm.Packets >= 2 && fm.Key.SrcIP.Is4() {
			target = fm
			break
		}
	}
	if target.Packets == 0 {
		t.Fatal("no suitable flow")
	}
	evs := []eventlog.Event{
		{
			TS: target.First, Source: eventlog.SourceFirewall, Severity: eventlog.SevWarning,
			Host: "fw-border", Message: fmt.Sprintf("deny tcp %s:23 (policy)", target.Key.SrcIP),
		},
		{
			// The zero Source and Severity: a syslog line at info.
			TS: target.First, Host: "srv-1", Message: "no address here",
		},
		{
			// Event far outside any plausible window.
			TS: target.Last + time.Hour, Source: eventlog.SourceFirewall, Severity: eventlog.SevWarning,
			Host: "fw-border", Message: fmt.Sprintf("deny udp %s:161", target.Key.SrcIP),
		},
	}
	st.AddEvents(evs)
	links := st.CorrelateEvents(2 * time.Second)
	if len(links) == 0 {
		t.Fatal("no correlations")
	}
	foundTarget := false
	for _, l := range links {
		if l.Event.TS >= target.Last+time.Hour {
			t.Error("out-of-window event correlated")
		}
		if l.Event.Message == "no address here" {
			t.Error("address-free event correlated")
		}
		if l.Flow.Key == target.Key {
			foundTarget = true
			if l.Gap != 0 {
				t.Errorf("gap = %v for an event inside the flow's span", l.Gap)
			}
		}
	}
	if !foundTarget {
		t.Error("target flow not linked to its firewall event")
	}
}

func TestCorrelateEventsGapMeasured(t *testing.T) {
	st := New()
	f := traffic.Frame{TS: 10 * time.Second, Data: serializeFrame(t, nil,
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{TTL: 64, Protocol: packet.IPProtocolTCP,
			SrcIP: mustIP("10.0.0.1"), DstIP: mustIP("198.51.100.7")},
		&packet.TCP{SrcPort: 1000, DstPort: 443, Flags: packet.TCPSyn},
	)}
	st.IngestFrame(&f)
	st.AddEvents([]eventlog.Event{{
		TS: 12 * time.Second, Source: eventlog.SourceFirewall,
		Message: "rate-limit triggered for 198.51.100.7",
	}})
	links := st.CorrelateEvents(5 * time.Second)
	if len(links) != 1 {
		t.Fatalf("links = %d", len(links))
	}
	if links[0].Gap != 2*time.Second {
		t.Errorf("gap = %v, want 2s", links[0].Gap)
	}
}

func mustIP(s string) netip.Addr { return netip.MustParseAddr(s) }
