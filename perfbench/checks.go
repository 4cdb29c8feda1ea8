package main

import (
	"fmt"
	"math"
)

// Each check compares the program's output with a quantity the benchmark
// computes itself, or with a property the method must have. They are pure
// functions of the values handed in, so the self-test can feed them
// tampered values and see them fail.

// checkInitial compares the generated initial load with the task count and
// load the spec asks for.
func checkInitial(init [][]float64, wantTasks int, wantLoad float64) error {
	tasks, load := 0, 0.0
	for _, sizes := range init {
		tasks += len(sizes)
		for _, s := range sizes {
			load += s
		}
	}
	if tasks != wantTasks || !closeTo(load, wantLoad) {
		return fmt.Errorf("initial load: generated %d tasks / %.6f load, spec asks for %d / %.6f", tasks, load, wantTasks, wantLoad)
	}
	return nil
}

// checkPopulation checks that a closed system still holds every task and
// all the load it started with.
func checkPopulation(tasks int, load float64, wantTasks int, wantLoad float64) error {
	if tasks != wantTasks || !closeTo(load, wantLoad) {
		return fmt.Errorf("closed system holds %d tasks / %.6f load, started with %d / %.6f", tasks, load, wantTasks, wantLoad)
	}
	return nil
}

// checkBalanced recomputes the CV of the final loads and compares it with
// the descent target.
func checkBalanced(loads []float64, eps float64) error {
	if c := cv(loads); !(c < eps) {
		return fmt.Errorf("descent ended at CV %.4f, not below eps %.4f", c, eps)
	}
	return nil
}

// checkDescent checks that CV sampled at the start and the quarter points
// of a descent never rises (the Theorem 2 trend).
func checkDescent(cvs []float64) error {
	for i := 1; i < len(cvs); i++ {
		if cvs[i] > cvs[i-1] {
			return fmt.Errorf("CV rose during the descent: quarter-point samples %v", cvs)
		}
	}
	return nil
}

// checkConservation checks Injected = Consumed + resident + in flight.
func checkConservation(injected, consumed, resident, inflight float64) error {
	if !closeTo(injected, consumed+resident+inflight) {
		return fmt.Errorf("load not conserved: injected %.6f != consumed %.6f + resident %.6f + in flight %.6f", injected, consumed, resident, inflight)
	}
	return nil
}

// checkArrivals compares the load the arrival wrapper handed to the engine
// with the engine's Injected counter over the same ticks.
func checkArrivals(tallied, injected float64) error {
	if !closeTo(tallied, injected) {
		return fmt.Errorf("arrivals: wrapper tallied %.6f load, engine injected %.6f", tallied, injected)
	}
	return nil
}

// checkCompletions checks completed = arrived - (resident at end - resident
// at start), in tasks.
func checkCompletions(completed, arrived, residentStart, residentEnd int64) error {
	if completed != arrived-(residentEnd-residentStart) {
		return fmt.Errorf("completions: %d completed, but %d arrived and residents went %d -> %d", completed, arrived, residentStart, residentEnd)
	}
	return nil
}

// checkBacklog checks that a stationary system's backlog at the end of the
// window is within bound of its value at the start.
func checkBacklog(start, end, bound float64) error {
	if math.Abs(end-start) > bound {
		return fmt.Errorf("backlog drifted from %.3f to %.3f, more than %.3f", start, end, bound)
	}
	return nil
}

// reconfigState is what checkReconfig compares before and after one
// topology change.
type reconfigState struct {
	epoch int64
	load  float64 // resident + in flight, summed by the benchmark
}

// deadNode is a departed node as the engine reports it.
type deadNode struct {
	id    int
	alive bool
	tasks int
	load  float64
}

// checkReconfig checks one applied topology change: the epoch advanced by
// one, departed nodes hold nothing and report dead, and load is conserved.
func checkReconfig(before, after reconfigState, dead []deadNode) error {
	if after.epoch != before.epoch+1 {
		return fmt.Errorf("reconfigure: epoch went %d -> %d, want +1", before.epoch, after.epoch)
	}
	for _, d := range dead {
		// The queue's cached total may keep a float residue of the order of
		// 1e-13 once its last task has left; a task count of 0 is exact.
		if d.alive || d.tasks != 0 || math.Abs(d.load) > 1e-9 {
			return fmt.Errorf("reconfigure: departed node %d alive=%v holds %d tasks / %g load", d.id, d.alive, d.tasks, d.load)
		}
	}
	if !closeTo(before.load, after.load) {
		return fmt.Errorf("reconfigure: load %.6f before, %.6f after", before.load, after.load)
	}
	return nil
}

// checkSameBytes compares two snapshots.
func checkSameBytes(what string, a, b []byte) error {
	if string(a) != string(b) {
		return fmt.Errorf("%s: snapshots differ (%d vs %d bytes)", what, len(a), len(b))
	}
	return nil
}

// checkStaleRestore expects restoring a pre-change snapshot against the
// post-change graph to fail.
func checkStaleRestore(err error) error {
	if err == nil {
		return fmt.Errorf("a snapshot taken before a topology change restored against the changed graph")
	}
	return nil
}
