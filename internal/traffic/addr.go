package traffic

import (
	"fmt"
	"net/netip"

	"campuslab/internal/packet"
)

// Department is one campus subnet with its population of hosts.
type Department struct {
	Name   string
	Prefix netip.Prefix // e.g. 10.3.0.0/16
	Hosts  int          // number of active hosts
}

// AddressPlan is the campus addressing layout plus catalogs of external
// endpoints. It is shared by the benign and attack generators so that the
// same hosts appear consistently across traffic classes.
type AddressPlan struct {
	CampusPrefix netip.Prefix // covers all departments
	Departments  []Department
	// External catalogs, ordered by popularity (index 0 = most popular).
	WebServers   []netip.Addr
	VideoCDNs    []netip.Addr
	Resolvers    []netip.Addr // campus/upstream DNS resolvers
	MailServers  []netip.Addr
	OpenResolver []netip.Addr // abused open resolvers (DNS amplification)
}

// DefaultPlan returns a UCSB-like campus plan: a 10.0.0.0/8 campus with
// per-department /16s and realistic external catalogs. hostsPerDept scales
// the population.
func DefaultPlan(hostsPerDept int) *AddressPlan {
	if hostsPerDept <= 0 {
		hostsPerDept = 200
	}
	deptNames := []string{"cs", "ece", "physics", "library", "dorms-a", "dorms-b", "admin", "med"}
	p := &AddressPlan{CampusPrefix: netip.MustParsePrefix("10.0.0.0/8")}
	for i, name := range deptNames {
		p.Departments = append(p.Departments, Department{
			Name:   name,
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i + 1), 0, 0}), 16),
			Hosts:  hostsPerDept,
		})
	}
	mk := func(base [4]byte, n int) []netip.Addr {
		out := make([]netip.Addr, n)
		for i := range out {
			a := base
			a[2] += byte(i / 250)
			a[3] = byte(1 + i%250)
			out[i] = netip.AddrFrom4(a)
		}
		return out
	}
	p.WebServers = mk([4]byte{151, 101, 0, 0}, 60)
	p.VideoCDNs = mk([4]byte{23, 56, 0, 0}, 20)
	p.Resolvers = []netip.Addr{
		netip.MustParseAddr("10.0.0.53"),
		netip.MustParseAddr("8.8.8.8"),
		netip.MustParseAddr("1.1.1.1"),
	}
	p.MailServers = mk([4]byte{64, 233, 160, 0}, 8)
	p.OpenResolver = mk([4]byte{203, 0, 113, 0}, 120)
	return p
}

// TotalHosts returns the campus population size.
func (p *AddressPlan) TotalHosts() int {
	n := 0
	for _, d := range p.Departments {
		n += d.Hosts
	}
	return n
}

// Host returns the address of the i-th campus host (0-based, department-
// major order). It panics if i is out of range.
func (p *AddressPlan) Host(i int) netip.Addr {
	for _, d := range p.Departments {
		if i < d.Hosts {
			base := d.Prefix.Addr().As4()
			// .0.0 and .x.0/.x.255 avoided; hosts spread across /24s.
			base[2] = byte(1 + i/250)
			base[3] = byte(1 + i%250)
			return netip.AddrFrom4(base)
		}
		i -= d.Hosts
	}
	panic(fmt.Sprintf("traffic: host index %d out of range", i))
}

// Contains reports whether addr belongs to the campus.
func (p *AddressPlan) Contains(addr netip.Addr) bool {
	return p.CampusPrefix.Contains(addr)
}

// departmentOf returns the department containing addr, or nil.
func (p *AddressPlan) departmentOf(addr netip.Addr) *Department {
	for i := range p.Departments {
		if p.Departments[i].Prefix.Contains(addr) {
			return &p.Departments[i]
		}
	}
	return nil
}

// macFor derives a stable locally-administered MAC from an IP address so
// frames from the same host always carry the same MAC.
func macFor(a netip.Addr) packet.MACAddr {
	b := a.As4()
	return packet.MACAddr{0x02, 0x1b, b[0], b[1], b[2], b[3]}
}

// gatewayMAC is the border router's MAC, the far side of every flow seen
// at the edge tap.
var gatewayMAC = packet.MACAddr{0x02, 0x00, 0x00, 0x00, 0xff, 0x01}
