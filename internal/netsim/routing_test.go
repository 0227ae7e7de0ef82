package netsim

import (
	"reflect"
	"testing"

	"campuslab/internal/traffic"
)

// refNextHop is the routing build this package used to run: for every
// destination, every BFS dequeue scans all links for those entering the
// node. buildRouting must fill the same tables from per-node link lists.
func refNextHop(t *Topology) [][]LinkID {
	n := len(t.Nodes)
	nextHop := make([][]LinkID, n)
	for src := 0; src < n; src++ {
		nextHop[src] = make([]LinkID, n)
		for i := range nextHop[src] {
			nextHop[src][i] = -1
		}
	}
	for dst := 0; dst < n; dst++ {
		visited := make([]bool, n)
		queue := []int{dst}
		visited[dst] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, l := range t.Links {
				if int(l.To) != cur || visited[l.From] {
					continue
				}
				visited[l.From] = true
				nextHop[l.From][dst] = l.ID
				queue = append(queue, int(l.From))
			}
		}
	}
	return nextHop
}

func TestRoutingMatchesQuadraticReference(t *testing.T) {
	// hosts is per department; the reference is cubic, so sizes stay small.
	for _, tc := range []struct{ hosts, perAccess int }{{5, 4}, {20, 10}, {40, 25}} {
		topo := BuildCampus(Config{Plan: traffic.DefaultPlan(tc.hosts), HostsPerAccess: tc.perAccess})
		want := refNextHop(topo)
		if !reflect.DeepEqual(topo.nextHop, want) {
			t.Fatalf("hosts=%d: next-hop tables differ from the reference", tc.hosts)
		}
		// route reads nextHop; walk every pair against the reference tables.
		ref := &Topology{Nodes: topo.Nodes, Links: topo.Links, nextHop: want}
		for src := range topo.Nodes {
			for dst := range topo.Nodes {
				got, exp := topo.route(NodeID(src), NodeID(dst)), ref.route(NodeID(src), NodeID(dst))
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("hosts=%d: Route(%d,%d) = %v, reference %v", tc.hosts, src, dst, got, exp)
				}
				if src != dst && got == nil {
					t.Fatalf("hosts=%d: no route %d -> %d in a connected campus", tc.hosts, src, dst)
				}
			}
		}
	}
}
