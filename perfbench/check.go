package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"mediaworm"
)

// outputs are the simulated results a run is checked on: the paper's d and
// σd, best-effort mean and maximum latency, and the counts behind them.
type outputs struct {
	MeanDeliveryIntervalMs   float64
	StdDevDeliveryIntervalMs float64
	BEMeanLatencyUs          float64
	BEMaxLatencyUs           float64
	FrameIntervals           uint64
	FlitsDelivered           uint64
	PlayoutMisses            uint64
}

func outputsOf(res mediaworm.Result) outputs {
	return outputs{
		MeanDeliveryIntervalMs:   res.MeanDeliveryIntervalMs,
		StdDevDeliveryIntervalMs: res.StdDevDeliveryIntervalMs,
		BEMeanLatencyUs:          res.BestEffort.MeanLatencyUs,
		BEMaxLatencyUs:           res.BestEffort.MaxLatencyUs,
		FrameIntervals:           res.FrameIntervals,
		FlitsDelivered:           res.FlitsDelivered,
		PlayoutMisses:            res.Playout.Misses,
	}
}

// golden.json pins each workload's outputs, by seed, for the default seed
// and one held-out seed. JSON numbers round-trip float64 exactly, so a
// match is bit-for-bit.
//
//go:embed golden.json
var goldenJSON []byte

// checker judges every run of one invocation. Each run must drain, conserve
// best-effort messages, and reproduce its seed's golden when one is pinned;
// a seed run more than once must give the same outputs every time.
type checker struct {
	golden map[string]outputs // the workload's pinned outputs by seed
	seen   map[uint64]outputs // each seed's first outputs
}

func newChecker(w workload) (*checker, error) {
	var all map[string]map[string]outputs
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &checker{golden: all[w.name], seen: map[uint64]outputs{}}, nil
}

// check returns why the run of seed that gave res and err is wrong, or nil.
func (c *checker) check(seed uint64, res mediaworm.Result, err error) error {
	if err != nil {
		return err
	}
	be := res.BestEffort
	switch {
	case be.Injected == 0 || be.Delivered != be.Injected:
		return fmt.Errorf("best-effort conservation: %d injected, %d delivered", be.Injected, be.Delivered)
	case res.FrameIntervals == 0 || res.FlitsDelivered == 0:
		return fmt.Errorf("empty run: %d frame intervals, %d flits", res.FrameIntervals, res.FlitsDelivered)
	}
	out := outputsOf(res)
	if g, ok := c.golden[strconv.FormatUint(seed, 10)]; ok && out != g {
		return fmt.Errorf("seed %d: outputs %+v differ from golden %+v", seed, out, g)
	}
	if first, ok := c.seen[seed]; !ok {
		c.seen[seed] = out
	} else if out != first {
		return fmt.Errorf("seed %d: outputs %+v differ from its first run's %+v", seed, out, first)
	}
	return nil
}
