package main

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"mediaworm"
)

// runStats is what one run reports: host times, memory, and the result.
type runStats struct {
	setup  time.Duration // inside NewSim
	run    time.Duration // first RunTo until Finish returns
	finish time.Duration // inside Finish
	// write and restore are the checkpoint round-trip's two halves, and
	// ckptBytes its size (zero without a checkpoint).
	write, restore time.Duration
	ckptBytes      int
	sliceMs        []float64 // host time of each RunTo slice
	peakHeap       uint64    // highest HeapInuse at slice boundaries
	alloc          uint64    // bytes allocated from NewSim to Finish's return
	gcCycles       uint32
	res            mediaworm.Result
	err            error
}

// runOnce executes one simulation through the public API: NewSim, fixed
// simulated RunTo slices (with a checkpoint written and restored at
// mid-window when checkpoint is set), then Finish. A non-nil prof receives
// a CPU profile of NewSim through Finish. sp, when non-nil, records spans
// under parent.
func runOnce(cfg mediaworm.Config, checkpoint bool, prof io.Writer, sp *spans, parent int) runStats {
	var st runStats
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0, peak := ms.TotalAlloc, ms.NumGC, ms.HeapInuse
	if prof != nil {
		if st.err = pprof.StartCPUProfile(prof); st.err != nil {
			return st
		}
		defer pprof.StopCPUProfile()
	}

	id := sp.begin("NewSim", parent)
	t := now()
	s, err := mediaworm.NewSim(cfg)
	st.setup = since(t)
	sp.end(id)
	if err != nil {
		st.err = err
		return st
	}

	end := s.End()
	start := now()
	for i := 1; i <= runSlices; i++ {
		id := sp.begin("RunTo", parent)
		t := now()
		s.RunTo(end * time.Duration(i) / runSlices)
		st.sliceMs = append(st.sliceMs, millis(since(t)))
		sp.end(id)
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapInuse)
		if checkpoint && i == runSlices/2 {
			if s, st.err = roundTrip(s, &st, sp, parent); st.err != nil {
				return st
			}
		}
	}
	id = sp.begin("Finish", parent)
	t = now()
	st.res, st.err = s.Finish()
	st.finish = since(t)
	sp.end(id)
	st.run = since(start)

	runtime.ReadMemStats(&ms)
	st.peakHeap = max(peak, ms.HeapInuse)
	st.alloc = ms.TotalAlloc - alloc0
	st.gcCycles = ms.NumGC - gc0
	return st
}

// roundTrip writes s's checkpoint to memory and restores a fresh Sim from
// it, recording both halves in st.
func roundTrip(s *mediaworm.Sim, st *runStats, sp *spans, parent int) (*mediaworm.Sim, error) {
	var buf bytes.Buffer
	id := sp.begin("WriteCheckpoint", parent)
	t := now()
	err := s.WriteCheckpoint(&buf)
	st.write = since(t)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	st.ckptBytes = buf.Len()
	id = sp.begin("RestoreSim", parent)
	t = now()
	r, err := mediaworm.RestoreSim(&buf)
	st.restore = since(t)
	sp.end(id)
	return r, err
}

// setupOnly times one NewSim, without running it. A collection first
// clears the benchmark's own garbage, and the collector stays off inside
// NewSim: otherwise whether a cycle starts during set-up depends on the heap
// the benchmark left behind, which doubled the median on torus8x8-light and
// made it swing by a third between timings.
func setupOnly(cfg mediaworm.Config) (time.Duration, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t := now()
	_, err := mediaworm.NewSim(cfg)
	return since(t), err
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// now and since read the host clock: the benchmark times the simulator from
// outside, and no reading flows back into a simulation.
func now() time.Time { return time.Now() } //mw:wallclock — host timing of the benchmark, never a simulation input

func since(t time.Time) time.Duration { return time.Since(t) } //mw:wallclock — host timing of the benchmark, never a simulation input
