package network

import (
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// benchNI builds one paper router (8 ports, 16 VCs, Virtual Clock) with an
// endpoint on every port and returns the router and the NI on port 0.
func benchNI(b *testing.B) (*core.Router, *NI) {
	b.Helper()
	cfg := core.Config{
		Ports: 8, VCs: 16, RTVCs: 12, BufferDepth: 20, StageDepth: 4,
		Policy: sched.VirtualClock, Period: 80 * sim.Nanosecond,
		Route: func(_ int, m *flit.Message, buf []int) []int { return append(buf, m.Dst) },
	}
	r, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f := NewFabric(sim.NewEngine(), cfg.Period)
	f.AddRouter(r)
	var ni *NI
	for p := 0; p < cfg.Ports; p++ {
		if n, _ := f.AttachEndpoint(r, p, p); p == 0 {
			ni = n
		}
	}
	return r, ni
}

// BenchmarkNIStep measures one injection-link cycle of a 16-VC NI.
//
//   - idle: nothing queued — what every NI costs on a cycle where only
//     other endpoints have traffic, the common case at light load.
//   - backlog4: four VCs each keep two 20-flit messages queued and the NI
//     sends one flit per cycle. The router is stepped alongside so credits
//     return, so each iteration includes one Router.Step (compare
//     BenchmarkRouterStepStream in internal/core).
func BenchmarkNIStep(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		_, ni := benchNI(b)
		t := sim.Time(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ni.step(t)
			t += ni.fab.Period
		}
	})
	b.Run("backlog4", func(b *testing.B) {
		r, ni := benchNI(b)
		// Messages recycle through a per-VC ring deep enough that a reused
		// message has long left the router before it is queued again.
		const vcs, ring = 4, 16
		var msgs [vcs][ring]flit.Message
		var next [vcs]int
		var id uint64
		t := sim.Time(0)
		refill := func() {
			for v := 0; v < vcs; v++ {
				for ni.vcs[v].q.len() < 2 {
					id++
					m := &msgs[v][next[v]%ring]
					next[v]++
					*m = flit.Message{ID: id, StreamID: v, Class: flit.VBR, MsgsInFrame: 1,
						Flits: 20, Vtick: 100 * sim.Nanosecond, Injected: t,
						Dst: 1 + v, DstVC: v}
					ni.Inject(v, m)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refill()
			ni.step(t)
			r.Step(t)
			t += ni.fab.Period
		}
	})
}
