package main

import (
	"fmt"
	"os"
	"path/filepath"

	"mediaworm"
	"mediaworm/internal/obs"
	"mediaworm/internal/rng"
)

// setup_s is the median of set-up-only NewSim timings of the invocation's
// seed: setupsPerRun after each run, so the timings spread over the whole
// budget, and more at the end until there are minSetups.
const (
	setupsPerRun = 20
	minSetups    = 100
)

// runSeed is the seed of an invocation's i-th end-to-end run. Run 0 uses the
// seed itself, so its golden applies; later runs derive their own, so an
// invocation averages over inputs and not only over repeats of one input.
func runSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return rng.DeriveSeed(seed, uint64(i))
}

// endToEnd repeats the workload's run until seconds of host time have
// passed and reports the end-to-end metrics over the runs, with the
// simulator's tracing off.
func endToEnd(w workload, seed uint64, seconds float64) (report, error) {
	var rep report
	cfg := w.config(seed)
	cycles, err := routerCycles(cfg)
	if err != nil {
		return rep, err
	}
	chk, err := newChecker(w)
	if err != nil {
		return rep, err
	}
	var setup, runS, cyclesPerS, flitsPerS, heapMB, allocMB []float64
	for start := now(); rep.Attempted == 0 || since(start).Seconds() < seconds; {
		s := runSeed(seed, rep.Attempted)
		st := runOnce(w.config(s), w.checkpoint, nil, nil, 0)
		rep.Attempted++
		if err := chk.check(s, st.res, st.err); err != nil {
			rep.fail(fmt.Sprintf("run %d", rep.Attempted), err)
		}
		if st.err != nil {
			continue
		}
		run := st.run.Seconds()
		fmt.Fprintf(os.Stderr, "perfbench: %s run %d (seed %d): setup %.6f s, run %.4f s\n", w.name, rep.Attempted, s, st.setup.Seconds(), run)
		for range setupsPerRun {
			d, err := setupOnly(cfg)
			if err != nil {
				return rep, err
			}
			setup = append(setup, d.Seconds())
		}
		runS = append(runS, run)
		cyclesPerS = append(cyclesPerS, cycles/run)
		flitsPerS = append(flitsPerS, float64(st.res.FlitsDelivered)/run)
		heapMB = append(heapMB, float64(st.peakHeap)/(1<<20))
		allocMB = append(allocMB, float64(st.alloc)/(1<<20))
	}
	if len(runS) == 0 {
		return rep, fmt.Errorf("none of %d runs finished", rep.Attempted)
	}
	for len(setup) < minSetups {
		d, err := setupOnly(cfg)
		if err != nil {
			return rep, err
		}
		setup = append(setup, d.Seconds())
	}
	rep.set("setup_s", median(setup), "s")
	rep.set("run_s", median(runS), "s")
	rep.set("router_cycles_per_s", median(cyclesPerS), "1/s")
	rep.set("flits_per_s", median(flitsPerS), "1/s")
	// Memory depends on the input, not on the host: a saturated run's
	// backlog, and so its heap, differs by a quarter from seed to seed. The
	// mean over the invocation's inputs is steadier than their median.
	rep.set("peak_heap_mb", mean(heapMB), "MiB")
	rep.set("alloc_mb", mean(allocMB), "MiB")
	rep.set("ok_frac", 1-float64(rep.Failed)/float64(rep.Attempted), "ratio")
	return rep, nil
}

// traced alternates an untraced leg (which also writes and restores a
// checkpoint at mid-window, for the snapshot metrics) with a traced,
// CPU-profiled leg for half the budget, then probes single layers. It
// reports the per-layer metrics. outDir receives the traced legs' CPU
// profiles and the spans of all of it.
func traced(w workload, seed uint64, seconds float64, outDir string) (report, error) {
	var rep report
	cfg := w.config(seed)
	tcfg := cfg
	tcfg.Trace.Enabled = true
	chk, err := newChecker(w)
	if err != nil {
		return rep, err
	}
	profDir := filepath.Join(outDir, w.name+".cpu")
	if err := os.RemoveAll(profDir); err != nil {
		return rep, err
	}
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return rep, err
	}
	sp := newSpans()
	root := sp.begin(w.name, 0)

	var (
		baseRun, tracedRun, finish, write, restore, gcs, sliceMs []float64
		profiles                                                 []string
		capture                                                  *obs.Capture
		ckptBytes                                                int
	)
	for start := now(); rep.Attempted == 0 || since(start).Seconds() < seconds/2; {
		leg := sp.begin("untraced leg", root)
		u := runOnce(cfg, true, nil, sp, leg)
		sp.end(leg)
		rep.Attempted++
		if err := chk.check(seed, u.res, u.err); err != nil {
			rep.fail("untraced leg", err)
		}
		if u.err == nil {
			baseRun = append(baseRun, (u.run - u.write - u.restore).Seconds())
			finish = append(finish, u.finish.Seconds())
			write = append(write, u.write.Seconds())
			restore = append(restore, u.restore.Seconds())
			gcs = append(gcs, float64(u.gcCycles))
			sliceMs = append(sliceMs, u.sliceMs...)
			ckptBytes = u.ckptBytes
		}

		path := filepath.Join(profDir, fmt.Sprintf("leg%d.pprof", len(profiles)))
		prof, err := os.Create(path)
		if err != nil {
			return rep, err
		}
		leg = sp.begin("traced leg", root)
		t := runOnce(tcfg, false, prof, sp, leg)
		sp.end(leg)
		if err := prof.Close(); err != nil {
			return rep, err
		}
		rep.Attempted++
		if err := chk.check(seed, t.res, t.err); err != nil {
			rep.fail("traced leg", err)
		}
		if t.err != nil {
			continue
		}
		tracedRun = append(tracedRun, t.run.Seconds())
		profiles = append(profiles, path)
		capture = t.res.Trace
	}
	if len(baseRun) == 0 || capture == nil || len(capture.Snapshots) == 0 {
		return rep, fmt.Errorf("no untraced and traced leg finished")
	}
	base := median(baseRun)

	final := capture.Snapshots[len(capture.Snapshots)-1]
	var hops, grants, grantWait, blocks, injected, ejected uint64
	for _, c := range final.PerVC {
		hops += c.Switched
		grants += c.Grants
		grantWait += c.GrantWait
		blocks += c.Blocks
	}
	for _, p := range final.PerPort {
		injected += p.Injected
		ejected += p.Ejected
	}
	if injected != ejected || hops == 0 || grants == 0 {
		rep.fail("traced counters", fmt.Errorf("%d messages injected, %d ejected, %d flit-hops, %d grants",
			injected, ejected, hops, grants))
	}
	rep.set("sim.events", float64(final.Engine.Processed), "count")
	rep.set("sim.max_pending", float64(final.Engine.MaxPending), "count")
	rep.set("core.flit_hops", float64(hops), "count")
	rep.set("core.grants", float64(grants), "count")
	rep.set("core.grant_wait_us_mean", float64(grantWait)/float64(max(grants, 1))/1e3, "us")
	rep.set("core.blocks", float64(blocks), "count")
	rep.set("core.ns_per_flit_hop", base*1e9/float64(max(hops, 1)), "ns")
	rep.set("network.msgs_injected", float64(injected), "count")
	rep.set("network.msgs_ejected", float64(ejected), "count")
	rep.set("mediaworm.slice_samples", float64(len(sliceMs)), "count")
	rep.set("mediaworm.slice_ms_p50", quantile(sliceMs, 0.5), "ms")
	rep.set("mediaworm.slice_ms_p90", quantile(sliceMs, 0.9), "ms")
	rep.set("mediaworm.finish_s", median(finish), "s")
	rep.set("snapshot.write_s", median(write), "s")
	rep.set("snapshot.restore_s", median(restore), "s")
	rep.set("snapshot.bytes", float64(ckptBytes), "bytes")
	rep.set("runtime.gc_cycles", median(gcs), "count")
	rep.set("obs.overhead", median(tracedRun)/base-1, "ratio")

	shares, err := selfShares(profiles, 100)
	if err != nil {
		return rep, err
	}
	for m, s := range shares {
		rep.set(m+".self_share", s, "ratio")
	}

	if err := probeLayers(&rep, cfg, w, seed, final.Engine.MaxPending, sp, root); err != nil {
		return rep, err
	}
	sp.end(root)

	path := filepath.Join(outDir, w.name+".spans.json")
	if err := sp.write(path); err != nil {
		return rep, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return rep, nil
}

// probeLayers runs the standalone layer probes at the workload's router
// configuration and calendar depth, each inside its own span.
func probeLayers(rep *report, cfg mediaworm.Config, w workload, seed uint64, depth int, sp *spans, root int) error {
	rc, err := routerConfig(cfg)
	if err != nil {
		return err
	}
	id := sp.begin("probe topology.Build", root)
	build, ports, err := probeBuild(cfg, rc)
	sp.end(id)
	if err != nil {
		return err
	}
	rc.Ports = ports
	rep.set("topology.build_s", build, "s")

	probes := []struct {
		span, metric string
		run          func() (float64, error)
	}{
		{"probe Router.Step idle", "core.step_idle_ns", func() (float64, error) { return probeStepIdle(rc) }},
		{"probe Router.Step stream", "core.step_stream_ns", func() (float64, error) { return probeStepStream(rc, cfg.MsgFlits) }},
		{"probe Arbiter.Pick", "sched.pick_ns", func() (float64, error) { return probePick(rc, w.pickCands, seed) }},
		{"probe Engine.Reschedule", "sim.reschedule_ns", func() (float64, error) { return probeReschedule(depth, seed), nil }},
	}
	for _, p := range probes {
		id := sp.begin(p.span, root)
		v, err := p.run()
		sp.end(id)
		if err != nil {
			return err
		}
		rep.set(p.metric, v, "ns")
	}
	return nil
}
