// Command perfbench is the pplb benchmark. It runs one workload for a given
// time in whole rounds, checks the program's outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one JSON
// object on the last line of standard output. See README.md.
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload converge --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics by name and unit. Each reported
// value is the median of the metric's samples in the run.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"balance_s", "s"},
	{"balance_ticks", "ticks"},
	{"tick_p50_us", "us"},
	{"tasks_per_s", "1/s"},
	{"resp_ticks", "ticks"},
	{"snapshot_s", "s"},
	{"restore_s", "s"},
	{"reconfigure_s", "s"},
	{"snapshot_mb", "MB"},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: converge, open or lifecycle")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 30, "measure whole rounds until this many seconds have passed")
	traced := fs.Int("trace", 0, "1 runs the traced mode and reports the per-layer metrics")
	spanDir := fs.String("span-dir", defaultSpanDir(), "directory the traced mode writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookupSpec(*name)
	if !ok || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload converge|open|lifecycle and --trace 0|1\n")
		return 2
	}
	workers := min(sp.workers, runtime.NumCPU())
	in := newInputs(sp, *seed)
	fmt.Fprintf(stdout, "perfbench %s seed=%d workers=%d nproc=%d GOMAXPROCS=%d %s\n",
		sp.name, *seed, workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res *result
	var err error
	if *traced == 1 {
		path := filepath.Join(*spanDir, fmt.Sprintf("spans-%s-%d.json", sp.name, *seed))
		res, err = runTraced(sp, in, workers, *seconds, path, stdout)
	} else {
		res, err = runPlain(sp, in, workers, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultSpanDir is the benchmark's build directory, which run.sh also
// uses: CARGO_TARGET_DIR when set, else .bench_build.
func defaultSpanDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// runPlain runs untraced rounds until seconds have passed and reports the
// end-to-end metrics, each the median of its samples.
func runPlain(sp spec, in inputs, workers int, seconds float64, log io.Writer) (*result, error) {
	out := newSamples()
	start := time.Now()
	rounds := 0
	for rounds == 0 || time.Since(start).Seconds() < seconds {
		before := out.counts()
		if err := newRound(sp, in, workers, false, out).run(); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "  round %d:%s\n", rounds, out.since(before))
		rounds++
	}
	res := &result{Attempted: out.ops, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		xs := out.v[m.name]
		if len(xs) == 0 {
			out.failures = append(out.failures, "no samples of "+m.name)
			continue
		}
		res.Metrics[m.name] = metric{Value: median(xs), Unit: m.unit}
		fmt.Fprintf(log, "  %-14s %14.6g %-6s (median of %d)\n", m.name, median(xs), m.unit, len(xs))
	}
	fmt.Fprintf(log, "  rounds %d, operations %d, %.1fs\n", rounds, out.ops, time.Since(start).Seconds())
	return finish(res, out, log), nil
}

func finish(res *result, out *samples, log io.Writer) *result {
	for _, f := range out.failures {
		fmt.Fprintf(log, "  CHECK FAILED: %s\n", f)
	}
	res.Correct = len(out.failures) == 0
	return res
}

// runTraced repeats a set of rounds until seconds have passed: an
// untraced round at the workload's worker count and one at the other count
// (1 or 2, capped at the host's CPUs), which give the parallel speed-up; a
// traced round at the workload's worker count, which gives the spans and
// per-layer metrics; and, when that count is not 1, a traced Workers=1 round,
// which times each planning call. Every round must end in the same state.
// It writes every traced round's spans to one file.
func runTraced(sp spec, in inputs, workers int, seconds float64, path string, log io.Writer) (*result, error) {
	other := min(3-workers, runtime.NumCPU())
	out := newSamples()
	rest := newSamples() // checks and operation counts of the other rounds
	file := spanFile{Workload: sp.name, Seed: in.seed}
	var plainWall, tracedWall []float64
	steps := map[int][]float64{} // untraced serve-window steps per worker count
	var tracedSteps []float64
	var plans int64
	var planNs time.Duration
	spanSamples := map[string][]float64{}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < seconds; k++ {
		u := newRound(sp, in, workers, false, rest)
		u.hash = true
		t0 := time.Now()
		if err := u.run(); err != nil {
			return nil, err
		}
		plainWall = append(plainWall, time.Since(t0).Seconds())
		rounds := []*round{u}
		if other != workers {
			rounds = append(rounds, newRound(sp, in, other, false, rest))
		}
		t := newRound(sp, in, workers, true, out)
		rounds = append(rounds, t)
		if workers != 1 {
			rounds = append(rounds, newRound(sp, in, 1, true, rest))
		}
		for _, r := range rounds[1:] {
			r.hash = true
			t0 = time.Now()
			if err := r.run(); err != nil {
				return nil, err
			}
			if r == t {
				tracedWall = append(tracedWall, time.Since(t0).Seconds())
			}
		}
		for _, r := range rounds {
			if r.finalHash != u.finalHash {
				out.check(fmt.Errorf("a Workers=%d round (traced: %v) ended in another state than the untraced Workers=%d round", r.workers, r.tr != nil, workers))
			}
			if r.tr == nil {
				steps[r.workers] = append(steps[r.workers], r.stepUs...)
				continue
			}
			if r.workers == 1 {
				n, _, ns := r.tp.totals()
				plans += n
				planNs += ns
			}
			file.Rounds = append(file.Rounds, r.tr.export(fmt.Sprintf("traced-%d", k), r.workers))
		}
		tracedSteps = append(tracedSteps, t.stepUs...)
		for n, xs := range t.tr.samples {
			spanSamples[n] = append(spanSamples[n], xs...)
		}
		fmt.Fprintf(log, "  set %d: untraced %.2fs, traced %.2fs; self time per layer (Workers=%d):\n%s",
			k, plainWall[k], tracedWall[k], workers, selfTable(t.tr.selfTimes()))
	}
	out.failures = append(out.failures, rest.failures...)
	out.ops += rest.ops

	if err := writeSpans(path, file); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "  spans written to %s\n", path)

	w1, w2 := median(steps[1]), median(steps[2])
	speedup := 1.0
	if len(steps[2]) > 0 {
		speedup = w1 / w2
	}
	spanMedian := func(name string, scale float64) float64 { return median(spanSamples[name]) * scale }
	layer := []struct {
		name, unit string
		value      float64
	}{
		{"topology.build_s", "s", spanMedian("topology.NewTorus", 1)},
		{"topology.commit_s", "s", spanMedian("topology.Commit", 1)},
		{"linkmodel.new_s", "s", spanMedian("linkmodel.New", 1)},
		{"workload.initial_s", "s", spanMedian("workload.initial", 1)},
		{"workload.arrivals_us", "us", spanMedian("workload.arrivals", 1e6)},
		{"core.plans_per_tick", "count", median(out.v["core.plans_per_tick"])},
		{"core.moves_per_tick", "count", median(out.v["core.moves_per_tick"])},
		{"core.plan_ns", "ns", float64(planNs) / float64(max(plans, 1))},
		{"sim.new_s", "s", spanMedian("sim.NewSystem", 1)},
		{"sim.step_p50_us", "us", median(tracedSteps)},
		{"sim.step_p99_us", "us", quantile(tracedSteps, 0.99)},
		{"sim.step_w1_p50_us", "us", w1},
		{"sim.parallel_speedup", "ratio", speedup},
		{"sim.active_nodes", "count", median(out.v["sim.active_nodes"])},
		{"sim.migrations_per_tick", "count", median(out.v["sim.migrations_per_tick"])},
		{"sim.accepted_ratio", "ratio", median(out.v["sim.accepted_ratio"])},
		{"sim.snapshot_s", "s", spanMedian("sim.Snapshot", 1)},
		{"sim.restore_s", "s", spanMedian("sim.RestoreSystem", 1)},
		{"sim.reconfigure_s", "s", spanMedian("sim.Reconfigure", 1)},
		{"metrics.sample_us", "us", spanMedian("metrics.OnTick", 1e6)},
		{"stats.cv_us", "us", spanMedian("stats.CV", 1e6)},
		{"trace.overhead_ratio", "ratio", median(tracedWall) / median(plainWall)},
	}
	res := &result{Attempted: out.ops, Metrics: map[string]metric{}}
	for _, m := range layer {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Fprintf(log, "  %-24s %14.6g %s\n", m.name, m.value, m.unit)
	}
	return finish(res, out, log), nil
}
