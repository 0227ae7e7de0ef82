// Package eventlog models the complementary, non-packet data sources the
// paper's data store ingests alongside capture (§5: "server logs, firewall
// rules, configuration files, events"), each event stamped by its sensor's
// own, possibly skewed and drifting clock.
package eventlog

import (
	"fmt"
	"math/rand"
	"time"
)

// Source identifies the sensor class an event came from.
type Source uint8

// Sensor classes feeding the data store.
const (
	sourceSyslog Source = iota
	SourceFirewall
	sourceConfig
	sourceIDS
	numSources
)

var sourceNames = [numSources]string{"syslog", "firewall", "config", "ids"}

// String returns the source name.
func (s Source) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return fmt.Sprintf("source-%d", uint8(s))
}

// Severity grades an event.
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

// Event is one sensor record. TS is scenario-relative, in the *sensor's*
// clock.
type Event struct {
	TS       time.Duration
	Source   Source
	Severity Severity
	Host     string // reporting host
	Message  string
	Attrs    map[string]string
}

// Generator produces a skewed, realistic event stream for one sensor.
type Generator struct {
	rng    *rand.Rand
	source Source
	hosts  []string
	// skew is this sensor's constant clock offset from the capture clock
	// (positive = sensor clock runs ahead).
	skew time.Duration
	// drift is the sensor's clock drift in ns per second of scenario time.
	drift float64
	rate  float64 // events per second
}

// GeneratorConfig configures an event generator.
type GeneratorConfig struct {
	Source Source
	Hosts  []string
	Skew   time.Duration
	Drift  float64 // ns of drift per second
	Rate   float64 // mean events/second
	Seed   int64
}

// NewGenerator builds a generator; Rate defaults to 2/s.
func NewGenerator(cfg GeneratorConfig) *Generator {
	if cfg.Rate <= 0 {
		cfg.Rate = 2
	}
	if len(cfg.Hosts) == 0 {
		cfg.Hosts = []string{"srv-auth-1", "srv-web-1", "fw-border", "sw-core-1"}
	}
	return &Generator{
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		source: cfg.Source,
		hosts:  cfg.Hosts,
		skew:   cfg.Skew,
		drift:  cfg.Drift,
		rate:   cfg.Rate,
	}
}

var syslogTemplates = []struct {
	sev Severity
	msg string
}{
	{sevInfo, "sshd: accepted publickey for %s"},
	{SevWarning, "sshd: failed password for invalid user %s"},
	{sevInfo, "systemd: started nightly backup job"},
	{sevError, "nginx: upstream timed out while reading response"},
	{SevWarning, "kernel: nf_conntrack table 90%% full"},
	{sevInfo, "dhcpd: DHCPACK on 10.4.12.%s"},
	{sevCritical, "raid: degraded array md0, disk %s failed"},
}

var firewallTemplates = []struct {
	sev Severity
	msg string
}{
	{sevInfo, "allow tcp %s:443"},
	{SevWarning, "deny tcp %s:23 (policy: no-telnet)"},
	{SevWarning, "deny udp %s:161 external snmp probe"},
	{sevError, "rate-limit triggered for %s"},
}

var users = []string{"alice", "bob", "carol", "dave", "svc-ci", "guest"}

// Generate emits events over [0, dur) in sensor-clock order.
func (g *Generator) Generate(dur time.Duration) []Event {
	var out []Event
	trueT := time.Duration(0)
	for {
		gap := time.Duration(g.rng.ExpFloat64() / g.rate * float64(time.Second))
		trueT += gap
		if trueT >= dur {
			break
		}
		// Sensor clock = true time + skew + drift*elapsed.
		sensorT := trueT + g.skew + time.Duration(g.drift*trueT.Seconds())
		ev := Event{
			TS:     sensorT,
			Source: g.source,
			Host:   g.hosts[g.rng.Intn(len(g.hosts))],
			Attrs:  map[string]string{"true_ts": trueT.String()},
		}
		switch g.source {
		case SourceFirewall:
			tpl := firewallTemplates[g.rng.Intn(len(firewallTemplates))]
			ev.Severity = tpl.sev
			ev.Message = fmt.Sprintf(tpl.msg, fmt.Sprintf("198.51.100.%d", g.rng.Intn(255)))
		case sourceConfig:
			ev.Severity = sevInfo
			ev.Message = fmt.Sprintf("config commit %08x by netops", g.rng.Uint32())
		case sourceIDS:
			ev.Severity = SevWarning
			ev.Message = fmt.Sprintf("signature %d matched on sensor %s", 2000000+g.rng.Intn(5000), ev.Host)
		default:
			tpl := syslogTemplates[g.rng.Intn(len(syslogTemplates))]
			ev.Severity = tpl.sev
			ev.Message = fmt.Sprintf(tpl.msg, users[g.rng.Intn(len(users))])
		}
		out = append(out, ev)
	}
	return out
}
