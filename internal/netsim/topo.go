// Package netsim is the campus production network substitute: a
// discrete-event simulator of a hierarchical campus topology (hosts →
// access → distribution → core → border → Internet) with link bandwidth,
// propagation delay and finite queues. It is the testbed half of Figure 1:
// deployable models run at the border switch, taps feed the capture
// pipeline, and performance problems (E.g. an overloaded uplink) have a
// place to happen.
package netsim

import (
	"fmt"
	"net/netip"

	"campuslab/internal/traffic"
)

// NodeID indexes a node in the topology.
type NodeID int

// NodeKind classifies topology nodes.
type NodeKind uint8

// Node kinds, edge to core.
const (
	kindHost NodeKind = iota
	kindAccess
	kindDist
	kindCore
	kindBorder
	kindInternet
)

// String returns the kind name.
func (k NodeKind) String() string {
	switch k {
	case kindHost:
		return "host"
	case kindAccess:
		return "access"
	case kindDist:
		return "dist"
	case kindCore:
		return "core"
	case kindBorder:
		return "border"
	case kindInternet:
		return "internet"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// Node is one device in the campus.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
}

// LinkID indexes a directed link.
type LinkID int

// Link is a directed edge with a rate/delay/queue model. Every physical
// cable is two Links, one per direction.
type Link struct {
	ID        LinkID
	From, To  NodeID
	Bandwidth float64 // bits per second
	PropDelay float64 // seconds
	QueueLen  int     // packets
}

// Config sizes the generated campus.
type Config struct {
	// Plan supplies departments and addressing (nil = DefaultPlan(200)).
	Plan *traffic.AddressPlan
	// HostsPerAccess groups hosts under access switches (default 50).
	HostsPerAccess int
	// Dist/Uplink bandwidths in bits/s. Defaults: 10G dist, 10G uplink;
	// access links run at accessBW and the core at coreBW (the paper's
	// campus scale).
	DistBW, UplinkBW float64
	// QueueLen is the per-link queue capacity in packets (default 256).
	QueueLen int
}

// Access links run at 1G and the core at 40G.
const (
	accessBW = 1e9
	coreBW   = 40e9
)

func (c Config) withDefaults() Config {
	if c.Plan == nil {
		c.Plan = traffic.DefaultPlan(200)
	}
	if c.HostsPerAccess <= 0 {
		c.HostsPerAccess = 50
	}
	if c.DistBW <= 0 {
		c.DistBW = 10e9
	}
	if c.UplinkBW <= 0 {
		c.UplinkBW = 10e9
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 256
	}
	return c
}

// Topology is the built campus graph with routing state.
type Topology struct {
	cfg      Config
	Nodes    []Node
	Links    []Link
	adj      [][]LinkID // outgoing links per node
	nextHop  [][]LinkID // [from][dst] -> link to take
	hostNode map[netip.Addr]NodeID
	Border   NodeID
	Internet NodeID
	// Uplink is the border->internet link (the paper's 10-20 Gbps pipe);
	// DownLink is its reverse.
	Uplink, DownLink LinkID
}

// BuildCampus constructs the hierarchical campus for cfg.
func BuildCampus(cfg Config) *Topology {
	cfg = cfg.withDefaults()
	t := &Topology{cfg: cfg, hostNode: make(map[netip.Addr]NodeID)}

	addNode := func(kind NodeKind, name string) NodeID {
		id := NodeID(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Name: name})
		return id
	}
	addPipe := func(a, b NodeID, bw float64, delay float64) {
		for _, dir := range [2][2]NodeID{{a, b}, {b, a}} {
			id := LinkID(len(t.Links))
			t.Links = append(t.Links, Link{
				ID: id, From: dir[0], To: dir[1],
				Bandwidth: bw, PropDelay: delay, QueueLen: cfg.QueueLen,
			})
		}
	}

	core := addNode(kindCore, "core-1")
	t.Border = addNode(kindBorder, "border-1")
	t.Internet = addNode(kindInternet, "internet")
	addPipe(core, t.Border, coreBW, 50e-6)
	addPipe(t.Border, t.Internet, cfg.UplinkBW, 5e-3) // 5ms to upstream

	hostIdx := 0
	for _, dept := range cfg.Plan.Departments {
		dist := addNode(kindDist, "dist-"+dept.Name)
		addPipe(dist, core, cfg.DistBW, 100e-6)
		nAccess := (dept.Hosts + cfg.HostsPerAccess - 1) / cfg.HostsPerAccess
		for a := 0; a < nAccess; a++ {
			acc := addNode(kindAccess, fmt.Sprintf("acc-%s-%d", dept.Name, a))
			addPipe(acc, dist, accessBW, 50e-6)
			for h := 0; h < cfg.HostsPerAccess && a*cfg.HostsPerAccess+h < dept.Hosts; h++ {
				addr := cfg.Plan.Host(hostIdx)
				hn := addNode(kindHost, "host-"+addr.String())
				addPipe(hn, acc, accessBW, 10e-6)
				t.hostNode[addr] = hn
				hostIdx++
			}
		}
	}
	t.buildRouting()
	// Identify the uplink pair.
	for _, l := range t.Links {
		if l.From == t.Border && l.To == t.Internet {
			t.Uplink = l.ID
		}
		if l.From == t.Internet && l.To == t.Border {
			t.DownLink = l.ID
		}
	}
	return t
}

// buildRouting runs BFS from every node to fill next-hop tables (the
// topology is a tree, so shortest paths are unique).
func (t *Topology) buildRouting() {
	n := len(t.Nodes)
	t.adj = make([][]LinkID, n)
	in := make([][]LinkID, n) // incoming links per node, in Links order
	for _, l := range t.Links {
		t.adj[l.From] = append(t.adj[l.From], l.ID)
		in[l.To] = append(in[l.To], l.ID)
	}
	table := make([]LinkID, n*n)
	for i := range table {
		table[i] = -1
	}
	t.nextHop = make([][]LinkID, n)
	for src := range t.nextHop {
		t.nextHop[src] = table[src*n : (src+1)*n : (src+1)*n]
	}
	// BFS from each destination over reversed edges, recording the link
	// each predecessor should take.
	visited := make([]bool, n)
	queue := make([]NodeID, 0, n)
	for dst := 0; dst < n; dst++ {
		clear(visited)
		queue = append(queue[:0], NodeID(dst))
		visited[dst] = true
		for head := 0; head < len(queue); head++ {
			// All links INTO cur: their From nodes route via that link.
			for _, id := range in[queue[head]] {
				from := t.Links[id].From
				if visited[from] {
					continue
				}
				visited[from] = true
				t.nextHop[from][dst] = id
				queue = append(queue, from)
			}
		}
	}
}

// nodeFor maps an IP to its topology node: campus hosts to their access
// port, everything else to the Internet node.
func (t *Topology) nodeFor(addr netip.Addr) NodeID {
	if id, ok := t.hostNode[addr]; ok {
		return id
	}
	return t.Internet
}

// route returns the link path from src to dst node.
func (t *Topology) route(src, dst NodeID) []LinkID {
	if src == dst {
		return nil
	}
	var path []LinkID
	cur := src
	for cur != dst {
		l := t.nextHop[cur][dst]
		if l < 0 {
			return nil // unreachable
		}
		path = append(path, l)
		cur = t.Links[l].To
		if len(path) > len(t.Nodes) {
			return nil // safety: routing loop
		}
	}
	return path
}
