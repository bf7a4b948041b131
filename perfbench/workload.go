package main

import (
	"fmt"
	"time"

	"mediaworm"
	"mediaworm/internal/topology"
)

// workload is one benchmark input set. Every workload runs the paper's
// MediaWorm router (8-port paper routers, 16 VCs, Virtual Clock, 20-flit
// messages, 400 Mb/s links) under VBR traffic with an 80:20
// real-time:best-effort mix; they differ in fabric, load and length.
type workload struct {
	name     string
	topology mediaworm.Topology
	load     float64
	scale    float64
	// warmup and measure are the window lengths in (scaled) frame intervals.
	warmup, measure int
	// checkpoint makes the measured run write a checkpoint to memory at
	// mid-window, restore it, and finish on the restored Sim.
	checkpoint bool
	// pickCands is the arbiter probe's mean candidate count: the mean
	// number of candidates per switch-allocation Arbiter.Pick in the
	// routers, measured once on this workload as sized (seed 1) with
	// counters added to a copy of internal/core.
	pickCands float64
}

// runSlices is the number of fixed simulated RunTo slices a run is cut into.
// It keeps at least ten slice samples above the 90th percentile of one run.
const runSlices = 200

var workloads = []workload{
	// Fig. 5 / Table 2 operating point, where best-effort saturates. As
	// sized, 49.9% of VC-slot visits find a busy VC.
	{name: "switch-sat", topology: mediaworm.SingleSwitch, load: 0.90, scale: 0.05,
		warmup: 2, measure: 8, pickCands: 4.52},
	// §5.7 fat mesh at half load: 7.4% of VC-slot visits find a busy VC,
	// and the run passes through a checkpoint write and restore.
	{name: "fatmesh-light", topology: mediaworm.FatMesh2x2, load: 0.50, scale: 0.05,
		warmup: 2, measure: 2, checkpoint: true, pickCands: 1.47},
	// Generated 64-router torus with one endpoint per router and dateline
	// VC classes: 6.9% of VC-slot visits find a busy VC, yet every router
	// and NI is stepped every cycle.
	{name: "torus8x8-light", topology: "torus8x8c1", load: 0.40, scale: 0.01,
		warmup: 2, measure: 2, pickCands: 1.52},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config returns the simulation configuration for one seed.
func (w workload) config(seed uint64) mediaworm.Config {
	cfg := mediaworm.DefaultConfig()
	cfg.Topology = w.topology
	cfg.Load = w.load
	cfg.RTShare = 0.8
	cfg.Seed = seed
	cfg = cfg.Scale(w.scale)
	cfg.Warmup = time.Duration(w.warmup) * cfg.FrameInterval
	cfg.Measure = time.Duration(w.measure) * cfg.FrameInterval
	return cfg
}

// routerCycles is the simulated router-cycles of one run's window: cycles
// from time zero to the end of the measurement window, times the routers.
func routerCycles(cfg mediaworm.Config) (float64, error) {
	spec, err := topology.ParseSpec(string(cfg.Topology))
	if err != nil {
		return 0, err
	}
	window := cfg.Warmup + cfg.Measure
	return float64(window) / float64(cfg.CyclePeriod()) * float64(spec.Routers()), nil
}
