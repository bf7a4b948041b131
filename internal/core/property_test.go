package core

import (
	"bytes"
	"fmt"
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/rng"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/snapshot"
)

// seqCapture records delivery order per message and counts flits.
type seqCapture struct {
	nextSeq map[*flit.Message]int
	flits   int
	t       *testing.T
}

func newSeqCapture(t *testing.T) *seqCapture {
	return &seqCapture{nextSeq: map[*flit.Message]int{}, t: t}
}

func (c *seqCapture) HasCredit(int) bool { return true }

func (c *seqCapture) Accept(vc int, f flit.Flit) {
	if f.Seq != c.nextSeq[f.Msg] {
		c.t.Fatalf("message %d flit %d delivered out of order (want %d)",
			f.Msg.ID, f.Seq, c.nextSeq[f.Msg])
	}
	c.nextSeq[f.Msg]++
	c.flits++
}

// upstreamVC models a wormhole-correct upstream feeder: messages on one VC
// are delivered contiguously, one flit per link cycle at most.
type upstreamVC struct {
	msgs []*flit.Message
	mi   int // current message
	fi   int // next flit of the current message
}

func (u *upstreamVC) done() bool { return u.mi == len(u.msgs) }

// occupancyCovers checks the occupancy-mask invariant against the real VC
// state: every input VC that is not idle, buffers flits or is receiving a
// message, and every output VC with staged flits or a holder, has its bit
// set. Step skips clear bits, so a missed set would strand that VC's state.
func occupancyCovers(r *Router) error {
	for p := range r.outs {
		for v := 0; v < r.nvc; v++ {
			bit := uint64(1) << uint(v&63)
			in := r.inAt(p, v)
			if (in.phase != vcIdle || !in.q.empty() || in.recvMsg != nil) && r.inOcc[p][v>>6]&bit == 0 {
				return fmt.Errorf("input VC %d/%d (phase %d, %d flits, receiving %v) has a clear occupancy bit",
					p, v, in.phase, in.q.len(), in.recvMsg != nil)
			}
			ov := r.outAt(p, v)
			if (!ov.stage.empty() || ov.busy != nil) && r.outOcc[p][v>>6]&bit == 0 {
				return fmt.Errorf("output VC %d/%d (%d staged, held %v) has a clear occupancy bit",
					p, v, ov.stage.len(), ov.busy != nil)
			}
		}
	}
	return nil
}

// idleCovers checks the idle-mask invariant: every vcIdle input VC has its
// idle bit set. While no message has died stage 2 walks only idle bits, so
// a missed set would strand the VC's next header.
func idleCovers(r *Router) error {
	for p := range r.outs {
		for v := 0; v < r.nvc; v++ {
			if r.inAt(p, v).phase == vcIdle && r.inIdle[p][v>>6]&(1<<uint(v&63)) == 0 {
				return fmt.Errorf("idle input VC %d/%d has a clear idle bit", p, v)
			}
		}
	}
	return nil
}

// noHiddenDeaths checks the death-flag invariant: while the flag is clear,
// no buffered or staged flit, receiving or head message, or output-VC
// holder is dead. The clear flag skips every dead-worm check, so a dead
// message behind it would never be reaped.
func noHiddenDeaths(r *Router) error {
	if r.deaths.Raised() {
		return nil
	}
	dead := func(m *flit.Message) bool { return m != nil && m.Dead }
	deadIn := func(rg *ring) bool {
		for i := 0; i < rg.n; i++ {
			if rg.buf[(rg.head+i)%len(rg.buf)].Msg.Dead {
				return true
			}
		}
		return false
	}
	for i := range r.inv {
		in := &r.inv[i]
		if deadIn(&in.q) || dead(in.recvMsg) || dead(in.headMsg) {
			return fmt.Errorf("input VC %d holds a dead message under a clear death flag", i)
		}
	}
	for i := range r.outv {
		if ov := &r.outv[i]; deadIn(&ov.stage) || dead(ov.busy) {
			return fmt.Errorf("output VC %d holds a dead message under a clear death flag", i)
		}
	}
	return nil
}

// checkDerived runs every derived-state invariant: the occupancy and idle
// masks cover the VC state, and the death flag hides no dead message.
func checkDerived(r *Router) error {
	for _, check := range []func(*Router) error{occupancyCovers, idleCovers, noHiddenDeaths} {
		if err := check(r); err != nil {
			return err
		}
	}
	return nil
}

// roundTrip checkpoints r through EncodeState and restores the state into a
// freshly built router wired to the same consumers, which RestoreState
// leaves with recomputed occupancy masks.
func roundTrip(t *testing.T, r *Router, consumers []Consumer) *Router {
	t.Helper()
	tbl := flit.NewMsgTable()
	r.CollectMessages(tbl)
	w := snapshot.NewWriter()
	if err := r.EncodeState(w, tbl); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(r.Config())
	if err != nil {
		t.Fatal(err)
	}
	for p, c := range consumers {
		fresh.Connect(p, c, true)
	}
	if err := fresh.RestoreState(rd, tbl); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestPropertyConservationAndOrder drives randomized router configurations
// with randomized wormhole traffic and checks the core invariants: every
// injected flit is delivered exactly once, per-message flit order is
// preserved, destinations are respected, and the router quiesces. After
// every Step the occupancy and idle masks must cover the VC state and the
// clear death flag must hide no dead message, including after a mid-trial
// checkpoint round trip.
func TestPropertyConservationAndOrder(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rng.NewStream(77, "core-property").Split(uint64(trial))
		ports := 2 + r.Intn(6)   // 2..7
		vcs := 1 + r.Intn(4)     // 1..4
		rtVCs := r.Intn(vcs + 1) // 0..vcs
		policy := sched.Kind(r.Intn(3))
		full := r.Intn(2) == 1
		iters := 1 + r.Intn(2)
		exclusive := r.Intn(2) == 1
		cfg := Config{
			Ports: ports, VCs: vcs, RTVCs: rtVCs,
			BufferDepth: 2 + r.Intn(30), StageDepth: 1 + r.Intn(6),
			FullCrossbar: full, Policy: policy, Period: period,
			AllocatorIterations:  iters,
			ExclusiveEndpointVCs: exclusive,
			Route:                func(_ int, m *flit.Message, buf []int) []int { return append(buf, m.Dst) },
		}
		router, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		caps := make([]*seqCapture, ports)
		consumers := make([]Consumer, ports)
		for p := 0; p < ports; p++ {
			caps[p] = newSeqCapture(t)
			consumers[p] = caps[p]
			router.Connect(p, caps[p], true)
		}

		// Random messages spread over input (port, vc) feeders.
		feeders := make([][]upstreamVC, ports)
		for p := range feeders {
			feeders[p] = make([]upstreamVC, vcs)
		}
		totalFlits := 0
		nMsgs := 5 + r.Intn(60)
		for i := 0; i < nMsgs; i++ {
			p := r.Intn(ports)
			v := r.Intn(vcs)
			class := flit.VBR
			vtick := sim.Time(1 + r.Intn(500))
			if rtVCs == 0 || (rtVCs < vcs && r.Intn(2) == 1) {
				class = flit.BestEffort
				vtick = sim.Forever
			}
			m := &flit.Message{
				ID: uint64(i + 1), StreamID: i, Class: class, MsgsInFrame: 1,
				Flits: 1 + r.Intn(40), Vtick: vtick,
				Dst: r.Intn(ports), DstVC: r.Intn(vcs),
			}
			fv := &feeders[p][v]
			fv.msgs = append(fv.msgs, m)
			totalFlits += m.Flits
		}

		// Drive: one flit per port per cycle from a random eligible VC,
		// respecting credits; step the router; stop when drained.
		now := period
		idle := 0
		for cycle := 0; idle < 200; cycle++ {
			if cycle > 200000 {
				t.Fatalf("trial %d: no progress after %d cycles", trial, cycle)
			}
			progressed := false
			for p := 0; p < ports; p++ {
				// Gather VCs with pending flits and credit.
				var eligible []int
				for v := 0; v < vcs; v++ {
					if !feeders[p][v].done() && router.HasCredit(p, v) {
						eligible = append(eligible, v)
					}
				}
				if len(eligible) == 0 {
					continue
				}
				v := eligible[r.Intn(len(eligible))]
				fv := &feeders[p][v]
				m := fv.msgs[fv.mi]
				router.Deliver(p, v, flit.Flit{Msg: m, Seq: fv.fi, Enq: now})
				fv.fi++
				if fv.fi == m.Flits {
					fv.mi++
					fv.fi = 0
				}
				progressed = true
			}
			router.Step(now)
			now += period
			if err := checkDerived(router); err != nil {
				t.Fatalf("trial %d cycle %d: %v", trial, cycle, err)
			}
			if cycle == 40 {
				router = roundTrip(t, router, consumers)
				if err := checkDerived(router); err != nil {
					t.Fatalf("trial %d after restore: %v", trial, err)
				}
			}
			if progressed || !router.Quiesced() {
				idle = 0
			} else {
				idle++
			}
		}

		if !router.Quiesced() {
			t.Fatalf("trial %d: router did not quiesce", trial)
		}
		delivered := 0
		for p, c := range caps {
			for m, n := range c.nextSeq {
				if m.Dst != p {
					t.Fatalf("trial %d: message %d for port %d arrived at %d",
						trial, m.ID, m.Dst, p)
				}
				if n != m.Flits {
					t.Fatalf("trial %d: message %d delivered %d/%d flits",
						trial, m.ID, n, m.Flits)
				}
			}
			delivered += c.flits
		}
		if delivered != totalFlits {
			t.Fatalf("trial %d: delivered %d flits, injected %d", trial, delivered, totalFlits)
		}
		st := router.Stats()
		if st.FlitsSwitched != uint64(totalFlits) || st.FlitsTransmitted != uint64(totalFlits) {
			t.Fatalf("trial %d: stats %+v vs %d flits", trial, st, totalFlits)
		}
	}
}
