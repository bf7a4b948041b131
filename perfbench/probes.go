package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"

	"mediaworm"
	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/topology"
	"mediaworm/internal/traffic"
)

// The probes drive single layers through their public functions at the
// workload's configuration. Each reports the median of probeReps timed
// batches.
const probeReps = 7

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// perOp times fn(n) in probeReps batches and returns the median ns per op.
func perOp(n int, fn func(n int)) float64 {
	v := make([]float64, probeReps)
	for i := range v {
		t := now()
		fn(n)
		v[i] = float64(since(t).Nanoseconds()) / float64(n)
	}
	return median(v)
}

// routerConfig is the router configuration NewSim derives from cfg, with a
// route that sends every message straight to its destination port.
func routerConfig(cfg mediaworm.Config) (core.Config, error) {
	kind, err := sched.ParseKind(string(cfg.Policy))
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Ports:       cfg.Ports,
		VCs:         cfg.VCs,
		RTVCs:       traffic.PartitionVCs(cfg.VCs, cfg.RTShare),
		BufferDepth: cfg.BufferDepth,
		StageDepth:  cfg.StageDepth,
		Policy:      kind,
		Sched:       sched.Params{VCs: cfg.VCs},
		Period:      sim.Time(cfg.CyclePeriod().Nanoseconds()),
		Route:       func(_ int, m *flit.Message, buf []int) []int { return append(buf, m.Dst) },
	}, nil
}

// probeBuild times topology.Build for the workload's fabric and returns the
// median seconds and the port count of the fabric's first router.
func probeBuild(cfg mediaworm.Config, rc core.Config) (float64, int, error) {
	spec, err := topology.ParseSpec(string(cfg.Topology))
	if err != nil {
		return 0, 0, err
	}
	v := make([]float64, probeReps)
	var net *topology.Net
	for i := range v {
		runtime.GC()
		t := now()
		net, err = topology.Build(sim.NewEngine(), spec, rc)
		v[i] = since(t).Seconds()
		if err != nil {
			return 0, 0, err
		}
	}
	return median(v), net.Routers[0].Config().Ports, nil
}

// devNull accepts every flit with unlimited credit and drops it.
type devNull struct{}

func (devNull) HasCredit(int) bool    { return true }
func (devNull) Accept(int, flit.Flit) {}

func probeRouter(rc core.Config) (*core.Router, error) {
	r, err := core.New(rc)
	if err != nil {
		return nil, err
	}
	for p := 0; p < rc.Ports; p++ {
		r.Connect(p, devNull{}, true)
	}
	return r, nil
}

// probeStepIdle times Router.Step on an empty router: the cost the fabric
// pays per router on every cycle that router has nothing to do.
func probeStepIdle(rc core.Config) (float64, error) {
	r, err := probeRouter(rc)
	if err != nil {
		return 0, err
	}
	t := sim.Time(0)
	return perOp(20_000, func(n int) {
		for i := 0; i < n; i++ {
			r.Step(t)
			t += rc.Period
		}
	}), nil
}

// probeStepStream times Router.Step while one wormhole stream of msgFlits
// messages crosses the router from port 0 to port 1, one flit in (credit
// permitting) and one out per cycle.
func probeStepStream(rc core.Config, msgFlits int) (float64, error) {
	r, err := probeRouter(rc)
	if err != nil {
		return 0, err
	}
	var (
		t   sim.Time
		m   *flit.Message
		seq int
		id  uint64
	)
	return perOp(20_000, func(n int) {
		for i := 0; i < n; i++ {
			if m == nil || seq == m.Flits {
				id++
				m = &flit.Message{ID: id, StreamID: 1, Class: flit.VBR, MsgsInFrame: 1,
					Flits: msgFlits, Vtick: 100, Dst: 1}
				seq = 0
			}
			if r.HasCredit(0, 0) {
				r.Deliver(0, 0, flit.Flit{Msg: m, Seq: seq, Enq: t})
				seq++
			}
			r.Step(t)
			t += rc.Period
		}
	}), nil
}

// probePick times Arbiter.Pick for the router's policy over candidate sets
// drawn from the VC set whose sizes average cands: real-time VCs carry
// random Virtual Clock stamps, best-effort VCs the maximum slack.
func probePick(rc core.Config, cands float64, seed uint64) (float64, error) {
	if cands < 1 || cands > float64(rc.VCs) {
		return 0, fmt.Errorf("pick probe: %v candidates among %d VCs", cands, rc.VCs)
	}
	rnd := rand.New(rand.NewPCG(seed, 1))
	sets := make([][]sched.Candidate, 256)
	// The first round((cands - floor) * 256) sets hold one candidate more.
	whole := int(cands)
	larger := int((cands-float64(whole))*float64(len(sets)) + 0.5)
	var seq uint64
	for i := range sets {
		size := whole
		if i < larger {
			size++
		}
		for _, vc := range rnd.Perm(rc.VCs)[:size] {
			seq++
			ts := sim.Forever
			if vc < rc.RTVCs {
				ts = sim.Time(rnd.Int64N(1 << 20))
			}
			sets[i] = append(sets[i], sched.Candidate{VC: vc, TS: ts, Enq: sim.Time(rnd.Int64N(1 << 20)), Seq: seq})
		}
	}
	arb := sched.NewArbiter(rc.Policy, rc.Sched)
	return perOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += arb.Pick(sets[i&255])
		}
	}), nil
}

// probeReschedule times Engine.Reschedule on a calendar holding depth
// pending events, moving each in turn to a random future instant.
func probeReschedule(depth int, seed uint64) float64 {
	depth = max(depth, 1)
	rnd := rand.New(rand.NewPCG(seed, 2))
	e := sim.NewEngine()
	evs := make([]sim.Event, depth)
	for i := range evs {
		evs[i] = e.At(sim.Time(rnd.Int64N(1<<20)), func() {})
	}
	at := make([]sim.Time, 4096)
	for i := range at {
		at[i] = sim.Time(rnd.Int64N(1 << 20))
	}
	return perOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			k := i % depth
			evs[k] = e.Reschedule(evs[k], at[i&4095])
		}
	})
}
