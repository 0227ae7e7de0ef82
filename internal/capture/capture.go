// Package capture implements the campus monitoring substrate the paper
// assumes (§5: "enterprise-wide, continuous, lossless, full packet capture
// at scale") as far as the lab needs it: pcap persistence, and a queueing
// model used to sweep offered load against capture capacity (E3).
//
// The contract mirrors the commercial appliance the paper cites: every
// packet is either captured or counted as a drop — silent loss is a bug.
package capture

import "time"

// Record is one captured packet: wire bytes plus capture timestamp and the
// tap (link) it was seen on.
type Record struct {
	TS   time.Duration // scenario-relative capture time
	Link uint16        // tap identifier
	Data []byte
}
