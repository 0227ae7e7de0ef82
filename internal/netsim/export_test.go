package netsim

import (
	"net/netip"

	"campuslab/internal/traffic"
)

// CutRoute removes src's next hop toward dst, so a frame from src to dst
// is unroutable at injection. Only tests may break a built topology.
func CutRoute(t *Topology, src, dst NodeID) { t.nextHop[src][dst] = -1 }

// The external replay pin drives the network frame by frame.

func (n *Network) AddTap(l LinkID, fn tapFunc)     { n.addTap(l, fn) }
func (n *Network) SetBorderFunc(fn borderFunc)     { n.setBorderFunc(fn) }
func (n *Network) Inject(f *traffic.Frame)         { n.inject(f) }
func (n *Network) Run() SimStats                   { return n.run() }
func (t *Topology) NodeFor(addr netip.Addr) NodeID { return t.nodeFor(addr) }
func (t *Topology) Route(src, dst NodeID) []LinkID { return t.route(src, dst) }
