package netsim

// CutRoute removes src's next hop toward dst, so a frame from src to dst
// is unroutable at injection. Only tests may break a built topology.
func CutRoute(t *Topology, src, dst NodeID) { t.nextHop[src][dst] = -1 }
