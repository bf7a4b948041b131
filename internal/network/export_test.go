package network

import (
	"fmt"

	"mediaworm/internal/flit"
)

// NIOccupancyCovers checks the NI occupancy-mask invariant against the real
// injection queues: every VC with a queued message has its bit set. step
// skips clear bits, so a missed set would strand that VC's messages.
func NIOccupancyCovers(n *NI) error {
	for v := range n.vcs {
		if !n.vcs[v].q.empty() && n.occ&(1<<uint(v)) == 0 {
			return fmt.Errorf("NI node %d VC %d queues %d messages but its occupancy bit is clear",
				n.Node, v, n.vcs[v].q.len())
		}
	}
	return nil
}

// KillMessage kills m through the fabric's kill helper, as the watchdog and
// the retransmission layer do, so the death flag is raised with it.
func KillMessage(f *Fabric, m *flit.Message) { f.kill(m) }
