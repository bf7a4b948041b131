package experiments

import (
	"testing"

	"mediaworm/internal/fault"
	"mediaworm/internal/sim"
	"mediaworm/internal/topology"
)

// isolateSwitch0 arms per-flit corruption everywhere and takes every
// transit link of switch 0 down for an eighth of the run, from its middle:
// while the switch is cut off, headers at or bound for it have no live
// route and are killed by the router, and corrupted flits kill their
// messages on the wire. Together with the churn points it exercises every
// kill site the routers own.
func isolateSwitch0(in *fault.Injector, net *topology.Net, stop sim.Time) {
	in.CorruptFlits(1e-4)
	for _, l := range net.TransitLinks() {
		if l.A == 0 || l.B == 0 {
			in.OutageAt(stop/2, stop/8, fault.Link{
				A: net.Routers[l.A], APort: l.APort,
				B: net.Routers[l.B], BPort: l.BPort,
			})
		}
	}
}

// TestFaultPointGolden pins the fault-path outputs field by field: link
// churn with dead-worm unravelling and retransmission (seed 7 at rate 2),
// hostile churn with admission revocation (seed 3 at rate 4), and a run
// with corruption and a switch isolation that kills headers for lack of a
// route (seed 5). Same-commit determinism alone would not notice a reap
// that moved by one cycle; these values would.
func TestFaultPointGolden(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
		rate float64
		arm  func(*fault.Injector, *topology.Net, sim.Time)
		want FaultPoint
	}{
		{"churn/seed7/rate2", 7, 2, nil, FaultPoint{
			FaultsPerLink: 2, LinkDowns: 9, DeliveredFrameRatio: 1,
			DMs: 33.490906214689275, SDMs: 5.073852072741484, FlitsDropped: 55,
			Retransmissions: 4, Recovered: 4, Revoked: 9, Readmitted: 9,
		}},
		{"churn/seed3/rate4", 3, 4, nil, FaultPoint{
			FaultsPerLink: 4, LinkDowns: 31, DeliveredFrameRatio: 1,
			DMs: 38.988688979591856, SDMs: 21.03378104159779, FlitsDropped: 235,
			Retransmissions: 14, Recovered: 14, Revoked: 104, Readmitted: 104,
		}},
		{"corrupt+isolate/seed5", 5, 0, isolateSwitch0, FaultPoint{
			LinkDowns: 4, DeliveredFrameRatio: 1,
			DMs: 37.2302105263158, SDMs: 29.525587088701894, FlitsDropped: 27978,
			Retransmissions: 1458, Recovered: 1450, Revoked: 26, Readmitted: 26,
		}},
	}
	for _, c := range cases {
		got, err := runFaultScenario(faultTestOptions(c.seed), c.rate, c.arm)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s:\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}
}
