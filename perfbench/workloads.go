package main

import (
	"math/rand/v2"

	"pplb/internal/workload"
)

// spec is one workload: a torus, an imbalanced initial load, and the
// lengths of the session phases every round runs (see session.go). The
// three workloads run the same script; their inputs decide which layer does
// the work.
type spec struct {
	name       string
	rows, cols int
	workers    int // capped at the host's CPU count

	// Initial load: baseTasks unit tasks on every node, plus spots hotspots
	// of spotTasks tasks of spotSize each (workload.MultiHotspot), shifted
	// across the torus by a seeded translation.
	baseTasks int
	spots     int
	spotTasks int
	spotSize  float64

	eps      float64 // descent target: RunUntilBalanced(eps)
	maxTicks int     // a descent that needs more is a failed check

	// Serve phase: Poisson arrivals of mean size 1 at every node plus a
	// moving hotspot of unit tasks, service rate 1 per node per tick.
	arrivalRate float64
	hotRate     float64
	hotPeriod   int64
	warmTicks   int // untimed, to reach the stationary regime
	windowTicks int // timed tick by tick
	subTicks    int // ticks per tasks_per_s sample

	cycles   int // snapshot/restore/reconfigure cycles per round
	gapTicks int // ticks stepped between the operations of a cycle
	builds   int // build-and-descend passes per round; the last one goes on
}

func (sp spec) n() int { return sp.rows * sp.cols }

// specs are the benchmark's workloads. The sizes follow the reasons given in
// README.md: converge is a dense transient where planning and transfers do
// the work, open is a large sparse machine where O(N)-per-tick observation
// and arrival generation sit beside O(changed) engine work, and lifecycle
// is a 262,144-node machine where build, snapshot, restore and reconfigure
// costs dominate.
var specs = []spec{
	{
		name: "converge",
		rows: 64, cols: 64, workers: 2,
		spots: 16, spotTasks: 2048, spotSize: 0.25,
		eps: 1.0, maxTicks: 5000,
		arrivalRate: 0.1, hotRate: 8, hotPeriod: 50,
		warmTicks: 100, windowTicks: 400, subTicks: 20,
		cycles: 40, gapTicks: 5, builds: 3,
	},
	{
		name: "open",
		rows: 256, cols: 256, workers: 2,
		baseTasks: 1, spots: 64, spotTasks: 256, spotSize: 1,
		eps: 1.0, maxTicks: 2000,
		arrivalRate: 0.01, hotRate: 8, hotPeriod: 50,
		warmTicks: 100, windowTicks: 400, subTicks: 20,
		cycles: 4, gapTicks: 5, builds: 5,
	},
	{
		name: "lifecycle",
		rows: 512, cols: 512, workers: 1,
		baseTasks: 4, spots: 64, spotTasks: 256, spotSize: 1,
		eps: 0.5, maxTicks: 1000,
		arrivalRate: 0.01, hotRate: 8, hotPeriod: 50,
		warmTicks: 20, windowTicks: 60, subTicks: 10,
		cycles: 6, gapTicks: 3, builds: 3,
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// inputs holds everything the benchmark derives from --seed. The engine
// seed is the run seed itself; the rest comes from a PCG stream of the
// standard library, so the inputs do not depend on the program's own RNG.
type inputs struct {
	seed     uint64
	dr, dc   int    // torus translation of the hotspot pattern
	hotStart int    // first centre of the moving arrival hotspot
	walkSeed uint64 // its random walk
	pickSeed uint64 // which nodes and links the reconfigurations touch
}

func newInputs(sp spec, seed uint64) inputs {
	r := rand.New(rand.NewPCG(seed, 0x7065726662656e63))
	return inputs{
		seed:     seed,
		dr:       r.IntN(sp.rows),
		dc:       r.IntN(sp.cols),
		hotStart: r.IntN(sp.n()),
		walkSeed: r.Uint64(),
		pickSeed: r.Uint64(),
	}
}

// initialLoad generates the workload's initial task sizes with the
// program's generators and shifts the hotspots by the seeded translation
// (a torus symmetry, so every seed poses the same problem in another place).
func initialLoad(sp spec, in inputs) [][]float64 {
	n := sp.n()
	spots := workload.MultiHotspot(n, sp.spots, sp.spots*sp.spotTasks, sp.spotSize)
	init := make([][]float64, n)
	for v, sizes := range spots {
		if len(sizes) == 0 {
			continue
		}
		r, c := v/sp.cols, v%sp.cols
		init[((r+in.dr)%sp.rows)*sp.cols+(c+in.dc)%sp.cols] = sizes
	}
	if sp.baseTasks > 0 {
		base := workload.Equal(n, sp.baseTasks, 1)
		for v := range init {
			init[v] = append(base[v], init[v]...)
		}
	}
	return init
}

// expectedInitial is the task count and total load the spec asks for,
// computed arithmetically rather than from the generated slices.
func expectedInitial(sp spec) (tasks int, load float64) {
	tasks = sp.n()*sp.baseTasks + sp.spots*sp.spotTasks
	load = float64(sp.n()*sp.baseTasks) + float64(sp.spots*sp.spotTasks)*sp.spotSize
	return tasks, load
}
