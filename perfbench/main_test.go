package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pplb"
	"pplb/internal/core"
)

// small shrinks a workload so the self-test runs each one end to end in
// about a second, keeping its shape: the same phases, worker count and
// kinds of load.
func small(sp spec) spec {
	sp.rows, sp.cols = 16, 16
	sp.spots = 4
	sp.spotTasks = max(64, sp.spotTasks/8)
	sp.warmTicks, sp.windowTicks, sp.subTicks = 10, 40, 10
	sp.gapTicks = 2
	sp.builds = 2
	return sp
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, full := range specs {
		sp := small(full)
		t.Run(sp.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2} {
				var log bytes.Buffer
				res, err := runPlain(sp, newInputs(sp, seed), sp.workers, 0, &log)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("seed %d: correct=%v attempted=%d failed=%d\n%s", seed, res.Correct, res.Attempted, res.Failed, log.String())
				}
				for _, m := range endToEnd {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || !(got.Value > 0) {
						t.Errorf("seed %d: metric %s = %+v, want a positive value in %s", seed, m.name, got, m.unit)
					}
				}
			}
		})
	}
}

func TestTracedMode(t *testing.T) {
	sp := small(specs[0])
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.json")
	var log bytes.Buffer
	res, err := runTraced(sp, newInputs(sp, 7), sp.workers, 0, path, &log)
	if err != nil {
		t.Fatal(err)
	}
	// runTraced checks that the traced round, the untraced round and the
	// twin at the other worker count end in byte-identical snapshots, and
	// that the wrapper keeps the active set.
	if !res.Correct {
		t.Fatalf("traced run failed its checks:\n%s", log.String())
	}
	for _, name := range []string{"topology.build_s", "core.plan_ns", "sim.step_p50_us", "sim.parallel_speedup", "trace.overhead_ratio"} {
		if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
			t.Errorf("per-layer metric %s = %+v", name, m)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range f.Rounds {
		ids := map[int32]bool{0: true}
		for _, s := range r.Spans {
			ids[s.ID] = true
		}
		for _, s := range r.Spans {
			seen[layerOf(s.Name)] = true
			if s.End < s.Start || !ids[s.Parent] && r.Dropped[s.Name] == 0 {
				t.Errorf("span %+v: bad interval or unknown parent", s)
			}
		}
	}
	for _, l := range []string{"topology", "linkmodel", "workload", "core", "sim", "metrics", "stats"} {
		if !seen[l] {
			t.Errorf("no %s span in the span file", l)
		}
	}
}

func TestTracedPolicyKeepsActiveSet(t *testing.T) {
	g := pplb.Torus(8, 8)
	p := &tracedPolicy{inner: core.New(core.DefaultConfig())}
	sys, err := pplb.NewSystem(g, p, pplb.WithInitial(pplb.HotspotLoad(g.N(), 0, 64, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if !sys.State().ActiveSetEnabled() {
		t.Fatal("the wrapping policy disabled the active set")
	}
	sys.Run(5)
	if plans, moves, _ := p.totals(); plans == 0 || moves == 0 {
		t.Fatalf("wrapper counted %d plans, %d moves", plans, moves)
	}
}

func TestSeedsChangeInputs(t *testing.T) {
	sp := specs[0]
	a, b := newInputs(sp, 1), newInputs(sp, 2)
	if a == b {
		t.Fatal("two seeds gave the same inputs")
	}
	if newInputs(sp, 1) != a {
		t.Fatal("one seed gave two different inputs")
	}
	ia, ib := initialLoad(sp, a), initialLoad(sp, b)
	same := true
	for v := range ia {
		if len(ia[v]) != len(ib[v]) {
			same = false
		}
	}
	if same {
		t.Fatal("two seeds placed the hotspots on the same nodes")
	}
}

// TestChecksRejectTampered feeds every check an honest value, which must
// pass, and the same value tampered by about one task, which must fail.
func TestChecksRejectTampered(t *testing.T) {
	sp := small(specs[1])
	init := initialLoad(sp, newInputs(sp, 3))
	wantTasks, wantLoad := expectedInitial(sp)
	flat := []float64{1, 1, 1, 1.2}
	cases := []struct {
		name           string
		honest, forged error
	}{
		{"initial", checkInitial(init, wantTasks, wantLoad), checkInitial(init, wantTasks+1, wantLoad)},
		{"population", checkPopulation(wantTasks, wantLoad, wantTasks, wantLoad), checkPopulation(wantTasks-1, wantLoad-1, wantTasks, wantLoad)},
		{"balanced", checkBalanced(flat, 0.5), checkBalanced([]float64{0, 0, 0, 4}, 0.5)},
		{"descent", checkDescent([]float64{4, 3, 2, 1, 0.9}), checkDescent([]float64{4, 3, 3.1, 1, 0.9})},
		{"conservation", checkConservation(1000, 600, 350, 50), checkConservation(1000, 600, 351, 50)},
		{"arrivals", checkArrivals(663.25, 663.25), checkArrivals(663.25, 664.25)},
		{"completions", checkCompletions(650, 663, 550, 563), checkCompletions(651, 663, 550, 563)},
		{"backlog", checkBacklog(550, 600, backlogBound(sp)), checkBacklog(550, 550+backlogBound(sp)+1, backlogBound(sp))},
		{"reconfig epoch", checkReconfig(reconfigState{3, 10}, reconfigState{4, 10}, nil), checkReconfig(reconfigState{3, 10}, reconfigState{5, 10}, nil)},
		{"reconfig dead node", checkReconfig(reconfigState{3, 10}, reconfigState{4, 10}, []deadNode{{id: 7}}), checkReconfig(reconfigState{3, 10}, reconfigState{4, 10}, []deadNode{{id: 7, tasks: 1, load: 1}})},
		{"reconfig load", checkReconfig(reconfigState{3, 10}, reconfigState{4, 10}, nil), checkReconfig(reconfigState{3, 10}, reconfigState{4, 9}, nil)},
		{"same bytes", checkSameBytes("x", []byte("abc"), []byte("abc")), checkSameBytes("x", []byte("abc"), []byte("abd"))},
		{"stale restore", checkStaleRestore(io.EOF), checkStaleRestore(nil)},
	}
	for _, c := range cases {
		if c.honest != nil {
			t.Errorf("%s: honest value failed: %v", c.name, c.honest)
		}
		if c.forged == nil {
			t.Errorf("%s: tampered value passed", c.name)
		}
	}
}

// TestTamperedRunIsIncorrect shows that a failed check reaches the result:
// the run reports correct=false and exits non-zero.
func TestTamperedRunIsIncorrect(t *testing.T) {
	sp := small(specs[0])
	sp.maxTicks = 1 // the descent cannot reach eps in one tick
	var log bytes.Buffer
	res, err := runPlain(sp, newInputs(sp, 1), 1, 0, &log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || !strings.Contains(log.String(), "CHECK FAILED") {
		t.Fatalf("a descent that missed eps was reported correct:\n%s", log.String())
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "converge", "--trace", "2"},
		{"--workload", "converge", "--seed", "x"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
