package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// shareModules are the buckets CPU-profile samples fold into by the package
// of their leaf frame: the mediaworm/internal packages named here, the root
// mediaworm package, the Go runtime (GC and malloc included), and "other"
// for everything else. Every sample lands in exactly one bucket.
var shareModules = []string{
	"sim", "core", "sched", "network", "traffic", "stats", "topology",
	"flit", "obs", "rng", "mediaworm", "runtime", "other",
}

// moduleOf maps a profiled function name such as
// "mediaworm/internal/core.(*Router).Step" to its bucket.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may hold slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "mediaworm":
		return "mediaworm"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "mediaworm/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "mediaworm/internal/"), "/")
		if slices.Contains(shareModules, mod) {
			return mod
		}
	}
	return "other"
}

// pprofTotal matches the header line of `go tool pprof -top`, e.g.
// "Showing nodes accounting for 1234, 100% of 1234 total".
var pprofTotal = regexp.MustCompile(`^Showing nodes accounting for (\d+), [\d.]+% of (\d+) total$`)

// selfShares folds the CPU profiles in paths by the module of each sample's
// leaf frame and returns every bucket's share of all samples. The Go
// toolchain's pprof reads and merges the profiles; its flat column, in
// samples, is each function's leaf count, inlined functions counted on
// their own. It fails when the profiles hold fewer than minSamples samples,
// when a leaf does not resolve to a function name, or when the folded rows
// do not add up to the profile's total.
func selfShares(paths []string, minSamples int64) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-flat", "-sample_index=samples",
		"-nodecount=0", "-nodefraction=0", "-edgefraction=0"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}

	counts := map[string]int64{}
	var folded, shown, total int64 = 0, -1, -1
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m := pprofTotal.FindStringSubmatch(line); m != nil {
			shown, _ = strconv.ParseInt(m[1], 10, 64)
			total, _ = strconv.ParseInt(m[2], 10, 64)
			continue
		}
		if strings.HasPrefix(line, "flat ") {
			rows = true
			continue
		}
		if !rows || line == "" {
			continue
		}
		// flat flat% sum% cum cum% name
		f := strings.Fields(line)
		if len(f) < 6 {
			return nil, fmt.Errorf("go tool pprof: unexpected row %q", line)
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: row %q: %v", line, err)
		}
		name := strings.Join(f[5:], " ")
		if strings.HasPrefix(name, "0x") {
			return nil, fmt.Errorf("CPU profile: %d samples at unresolved leaf %s", n, name)
		}
		counts[moduleOf(name)] += n
		folded += n
	}
	switch {
	case total < 0:
		return nil, fmt.Errorf("go tool pprof: no total line in its output")
	case folded != total || shown != total:
		return nil, fmt.Errorf("CPU profile: rows fold to %d samples, pprof shows %d of %d", folded, shown, total)
	case total < minSamples:
		return nil, fmt.Errorf("CPU profile holds %d samples, want at least %d", total, minSamples)
	}
	shares := map[string]float64{}
	for _, m := range shareModules {
		shares[m] = float64(counts[m]) / float64(total)
	}
	return shares, nil
}
