package mediaworm_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"mediaworm"
	"mediaworm/internal/experiments"
)

// Benchmarks regenerate each of the paper's tables and figures at a reduced
// video time-base (see Options.Scale); cmd/paperfigs runs the same code at
// higher fidelity. One benchmark per table/figure, as per DESIGN.md §6.
//
// Run them all with:
//
//	go test -bench=. -benchmem
func benchOpt() experiments.Options {
	return experiments.Options{Scale: 0.05, WarmupIntervals: 2, MeasureIntervals: 5, Seed: 1}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig3(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, _, err := experiments.Fig5Table2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tab, err := experiments.Fig5Table2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		tab.Fprint(io.Discard)
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunTable3(benchOpt()).Fprint(io.Discard)
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
		experiments.Fig9BestEffort(fig, io.Discard)
	}
}

// BenchmarkSweepSerialVsParallel measures the worker-pool speedup on the
// Fig. 3 sweep (10 independent simulation points) at widths 1/2/4/8,
// reporting throughput as points/sec. Output is byte-identical at every
// width — only wall clock changes — and the speedup ceiling is GOMAXPROCS:
// on a single-core runner every width degenerates to serial throughput.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	points := 2 * len(experiments.Fig3Loads) // policies × loads
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := benchOpt()
			opt.Parallel = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fig, err := experiments.Fig3(opt)
				if err != nil {
					b.Fatal(err)
				}
				fig.Fprint(io.Discard)
			}
			b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/sec")
		})
	}
}

// BenchmarkSingleRun measures the cost of one simulation point — the unit
// every figure sweep is built from.
func BenchmarkSingleRun(b *testing.B) {
	cfg := mediaworm.DefaultConfig().Scale(0.05)
	cfg.Warmup = 2 * cfg.FrameInterval
	cfg.Measure = 5 * cfg.FrameInterval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mediaworm.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricTick measures one fabric cycle — every router's Step, every
// NI's step and the traffic events due in that cycle — on the paper's single
// switch and fat mesh and on a generated 8×8 torus, all at light load (0.4,
// 80:20 mix). Each iteration advances a warmed-up Sim by one cycle period;
// when a Sim reaches the end of its window a fresh one is built and warmed
// off the clock.
func BenchmarkFabricTick(b *testing.B) {
	for _, topo := range []mediaworm.Topology{mediaworm.SingleSwitch, mediaworm.FatMesh2x2, "torus8x8c1"} {
		b.Run(string(topo), func(b *testing.B) {
			cfg := mediaworm.DefaultConfig()
			cfg.Topology = topo
			cfg.Load = 0.4
			cfg.RTShare = 0.8
			cfg = cfg.Scale(0.01)
			cfg.Warmup = cfg.FrameInterval
			cfg.Measure = 8 * cfg.FrameInterval
			period := cfg.CyclePeriod()
			var s *mediaworm.Sim
			var t time.Duration
			start := func() {
				var err error
				if s, err = mediaworm.NewSim(cfg); err != nil {
					b.Fatal(err)
				}
				t = cfg.Warmup
				s.RunTo(t)
			}
			start()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if t+period > s.End() {
					b.StopTimer()
					start()
					b.StartTimer()
				}
				t += period
				s.RunTo(t)
			}
		})
	}
}

// BenchmarkTraceOverhead compares one simulation point with tracing
// disabled (the default; instrumentation reduces to nil-pointer checks)
// against the same point with the full observability subsystem armed. The
// disabled variant is the ISSUE's <5%-overhead contract surface; compare
// against BenchmarkSingleRun and run with -benchmem to see the disabled
// path add zero allocations.
func BenchmarkTraceOverhead(b *testing.B) {
	base := mediaworm.DefaultConfig().Scale(0.05)
	base.RTShare = 0.8
	base.Warmup = 2 * base.FrameInterval
	base.Measure = 5 * base.FrameInterval
	for _, bc := range []struct {
		name  string
		trace mediaworm.TraceConfig
	}{
		{"disabled", mediaworm.TraceConfig{}},
		{"enabled", mediaworm.TraceConfig{Enabled: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := base
			cfg.Trace = bc.trace
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mediaworm.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation and extension benches (DESIGN.md §6 "ablation benches for the
// design choices DESIGN.md calls out").

func BenchmarkAblationAllocator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationAllocator(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkAblationEndpointVCs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationEndpointVCs(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkAblationSourcePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationSourcePolicy(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationScheduler(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkExtGoP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ExtGoP(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkExtTetrahedral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ExtTetrahedral(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkExtDynamicPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtDynamicPartition(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		experiments.FprintDynPart(res, io.Discard)
	}
}
