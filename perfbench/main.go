// Command perfbench is the simulator's speed ledger. It runs one named
// workload through the public mediaworm API (NewSim, fixed simulated RunTo
// slices, Finish) for a given host-time budget, checks every run's
// simulated outputs, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	python3 perfbench/run.py --workload switch-sat --seed 1 --seconds 20 --trace 0
//
// run.py builds this package from the surrounding checkout and runs it.
// With --trace 0 the metrics are the end-to-end ones, measured with the
// simulator's tracing off; with --trace 1 a traced run gives the per-layer
// breakdown (trace counters, a CPU profile folded by package, and
// standalone probes of single layers) and writes its spans as Chrome
// trace-event JSON. BENCHMARK.json at the repository root lists the
// workloads and metrics and why each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed attempt and says why on standard error.
func (r *report) fail(what string, err error) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	out := flag.String("out", ".", "directory for the traced run's span file and CPU profiles")
	printOutputs := flag.Bool("print-outputs", false, "run once uninterrupted and print the outputs a golden pins")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *printOutputs {
		st := runOnce(w.config(*seed), false, nil, nil, 0)
		if st.err != nil {
			fatal(st.err)
		}
		b, _ := json.Marshal(outputsOf(st.res))
		fmt.Println(string(b))
		return
	}

	var rep report
	switch *trace {
	case 0:
		rep, err = endToEnd(w, *seed, *seconds)
	case 1:
		rep, err = traced(w, *seed, *seconds, *out)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fatal(err)
	}
	rep.Correct = rep.Failed == 0
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// median returns the middle of v (the mean of the two middle values when
// len(v) is even); v is reordered.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is reordered.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(v)-1)
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}
