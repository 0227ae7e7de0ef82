// Package eventlog models the complementary, non-packet data sources the
// paper's data store ingests alongside capture (§5: "server logs, firewall
// rules, configuration files, events"). The lab generates one of them: the
// border firewall's log, stamped on the capture clock.
package eventlog

import (
	"fmt"
	"math/rand"
	"time"
)

// Source identifies the sensor class an event came from. A checkpoint
// stores the byte, so a value keeps its meaning.
type Source uint8

// SourceFirewall is the border firewall's log.
const SourceFirewall Source = 1

// String returns the source name.
func (s Source) String() string {
	if s == SourceFirewall {
		return "firewall"
	}
	return fmt.Sprintf("source-%d", uint8(s))
}

// Severity grades an event. A checkpoint stores the byte, so a value keeps
// its meaning.
type Severity uint8

// Event severities, syslog-style.
const (
	sevInfo Severity = iota
	SevWarning
	sevError
	sevCritical
)

// String returns the severity name.
func (s Severity) String() string {
	switch s {
	case sevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case sevError:
		return "error"
	default:
		return "critical"
	}
}

// Event is one sensor record. TS is scenario-relative.
type Event struct {
	TS       time.Duration
	Source   Source
	Severity Severity
	Host     string // reporting host
	Message  string
}

// Generator produces the firewall's event stream.
type Generator struct {
	rng  *rand.Rand
	rate float64 // events per second
}

// GeneratorConfig configures an event generator.
type GeneratorConfig struct {
	Rate float64 // mean events/second
	Seed int64
}

// NewGenerator builds a generator; Rate defaults to 2/s.
func NewGenerator(cfg GeneratorConfig) *Generator {
	if cfg.Rate <= 0 {
		cfg.Rate = 2
	}
	return &Generator{rng: rand.New(rand.NewSource(cfg.Seed)), rate: cfg.Rate}
}

// hosts are the reporting hosts an event names.
var hosts = []string{"srv-auth-1", "srv-web-1", "fw-border", "sw-core-1"}

var firewallTemplates = []struct {
	sev Severity
	msg string
}{
	{sevInfo, "allow tcp %s:443"},
	{SevWarning, "deny tcp %s:23 (policy: no-telnet)"},
	{SevWarning, "deny udp %s:161 external snmp probe"},
	{sevError, "rate-limit triggered for %s"},
}

// Generate emits events over [0, dur) in time order.
func (g *Generator) Generate(dur time.Duration) []Event {
	var out []Event
	ts := time.Duration(0)
	for {
		ts += time.Duration(g.rng.ExpFloat64() / g.rate * float64(time.Second))
		if ts >= dur {
			break
		}
		host := hosts[g.rng.Intn(len(hosts))]
		tpl := firewallTemplates[g.rng.Intn(len(firewallTemplates))]
		out = append(out, Event{
			TS:       ts,
			Source:   SourceFirewall,
			Severity: tpl.sev,
			Host:     host,
			Message:  fmt.Sprintf(tpl.msg, fmt.Sprintf("198.51.100.%d", g.rng.Intn(255))),
		})
	}
	return out
}
