package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"pplb"
	"pplb/internal/core"
	"pplb/internal/linkmodel"
	"pplb/internal/metrics"
	"pplb/internal/rng"
	"pplb/internal/sim"
	"pplb/internal/stats"
	"pplb/internal/topology"
	"pplb/internal/workload"
)

// round is one pass of the session script over a workload:
//
//  1. build the system and descend from its initial imbalance with
//     RunUntilBalanced(eps), several times; the last system goes on,
//  3. checkpoint: snapshot, then restore into an open configuration with
//     arrivals and service,
//  4. serve: an untimed warm-up, then a window timed tick by tick,
//  5. cycles of snapshot, restore and reconfigure, a few ticks apart.
//
// Every phase checks the program's outputs. An error returned by the
// program aborts the run; a failed check is recorded and the round goes on.
type round struct {
	sp      spec
	in      inputs
	workers int
	tr      *tracer       // nil when untraced
	tp      *tracedPolicy // nil when untraced
	out     *samples

	g     *topology.Graph
	sys   *pplb.System
	arr   sim.ArrivalFunc // built once per round, shared by every restore
	tally arrivalTally

	stepUs []float64 // serve-window step times

	// Traced-round observations.
	col       *metrics.Collector
	heights   []float64
	activeSum int64
	obsTicks  int64

	hash      bool     // take finalHash at the end of the round
	finalHash [32]byte // of the final snapshot
}

// samples collects a run's measurements: every value added under a name is
// one sample of that metric.
type samples struct {
	v        map[string][]float64
	failures []string
	ops      int64
}

func newSamples() *samples { return &samples{v: map[string][]float64{}} }

func (s *samples) add(name string, x float64) { s.v[name] = append(s.v[name], x) }

func (s *samples) check(err error) {
	if err != nil {
		s.failures = append(s.failures, err.Error())
	}
}

// counts returns how many samples each metric holds, for since.
func (s *samples) counts() map[string]int {
	c := map[string]int{}
	for k, v := range s.v {
		c[k] = len(v)
	}
	return c
}

// since renders the median of the samples added after counts returned
// before, for the end-to-end metrics.
func (s *samples) since(before map[string]int) string {
	var b strings.Builder
	for _, m := range endToEnd {
		if xs := s.v[m.name][before[m.name]:]; len(xs) > 0 {
			fmt.Fprintf(&b, " %s=%.4g", m.name, median(xs))
		}
	}
	return b.String()
}

type arrivalTally struct {
	count int64
	load  float64
}

func newRound(sp spec, in inputs, workers int, traced bool, out *samples) *round {
	r := &round{sp: sp, in: in, workers: workers, out: out}
	if traced {
		r.tr = newTracer()
		r.tp = &tracedPolicy{inner: core.New(core.DefaultConfig())}
		if workers == 1 {
			r.tp.tr = r.tr
		}
		r.col = metrics.NewCollector(1)
	}
	return r
}

func (r *round) policy() sim.Policy {
	if r.tp != nil {
		return r.tp
	}
	return core.New(core.DefaultConfig())
}

// observe runs after every tick. In traced rounds it times one collector
// sample and one CV computation on the tick's state, and counts active
// nodes; untraced rounds attach no observer.
func (r *round) observe(st *sim.State) {
	r.tr.begin("metrics.OnTick")
	r.col.OnTick(st)
	r.tr.end()
	r.heights = st.HeightsInto(r.heights)
	r.tr.begin("stats.CV")
	_ = stats.CV(r.heights)
	r.tr.end()
	r.activeSum += int64(st.ActiveNodes())
	r.obsTicks++
}

func (r *round) options(serve bool) []pplb.Option {
	opts := []pplb.Option{pplb.WithSeed(r.in.seed), pplb.WithWorkers(r.workers)}
	if serve {
		if r.arr == nil {
			r.arr = r.arrivals()
		}
		opts = append(opts, pplb.WithArrivals(r.arr), pplb.WithServiceRate(1))
	}
	if r.tr != nil {
		opts = append(opts, pplb.WithObserver(r.observe))
	}
	return opts
}

// arrivals builds the serve phase's arrival process and wraps it so that
// every arrival handed to the engine is tallied (and, traced, timed). The
// moving hotspot memoizes its walk on the graph it was given, so the
// original and the restored system of a cycle must share one instance to
// draw the same arrivals after a reconfiguration.
func (r *round) arrivals() sim.ArrivalFunc {
	n := r.sp.n()
	fn := workload.Combine(
		workload.PoissonArrivals(r.sp.arrivalRate, 1, n),
		workload.MovingHotspotArrivals(r.g, r.in.hotStart, r.sp.hotRate, 1, r.sp.hotPeriod, r.in.walkSeed),
	)
	return func(tick int64, rg *rng.RNG) []sim.Arrival {
		r.tr.begin("workload.arrivals")
		out := fn(tick, rg)
		r.tr.end()
		for _, a := range out {
			r.tally.count++
			r.tally.load += a.Load
		}
		return out
	}
}

func (r *round) run() error {
	defer func() {
		if r.sys != nil {
			r.sys.Close()
		}
	}()
	r.tr.begin("bench.round")
	defer r.tr.end()
	for i := 0; i < r.sp.builds; i++ {
		if r.sys != nil {
			r.sys.Close()
			r.sys = nil
		}
		if err := r.build(); err != nil {
			return err
		}
		r.descend()
	}
	if err := r.serve(); err != nil {
		return err
	}
	if err := r.cycles(); err != nil {
		return err
	}
	if r.hash {
		blob, err := r.sys.Snapshot()
		if err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		r.finalHash = sha256.Sum256(blob)
	}
	return nil
}

func (r *round) build() error {
	tr := r.tr
	settle()
	tr.begin("bench.build")
	defer tr.end()
	start := time.Now()
	tr.begin("topology.NewTorus")
	g := topology.NewTorus(r.sp.rows, r.sp.cols)
	tr.end()
	tr.begin("workload.initial")
	init := initialLoad(r.sp, r.in)
	tr.end()
	tr.begin("linkmodel.New")
	links := linkmodel.New(g)
	tr.end()
	tr.begin("sim.NewSystem")
	sys, err := pplb.NewSystem(g, r.policy(), append(r.options(false), pplb.WithInitial(init), pplb.WithLinks(links))...)
	tr.end()
	if err != nil {
		return fmt.Errorf("NewSystem: %w", err)
	}
	r.out.add("setup_s", time.Since(start).Seconds())
	r.out.ops++
	r.g, r.sys = g, sys
	if r.tp != nil {
		// Per-tick counts cover the last build's lineage only: its descent,
		// the restored system's warm-up and the serve window.
		r.tp.reset()
		r.activeSum, r.obsTicks = 0, 0
	}
	wantTasks, wantLoad := expectedInitial(r.sp)
	r.out.check(checkInitial(init, wantTasks, wantLoad))
	if r.tp != nil && !sys.State().ActiveSetEnabled() {
		r.out.check(fmt.Errorf("the traced policy wrapper disabled the active set"))
	}
	return nil
}

// residents sums resident tasks and load over every queue, plus the
// transfers and load in flight.
func residents(st *sim.State) (tasks int64, load float64) {
	for v := 0; v < st.Graph().N(); v++ {
		q := st.Queue(v)
		tasks += int64(q.Len())
		load += q.Total()
	}
	return tasks + int64(st.InFlight()), load + st.InFlightLoad()
}

func (r *round) step() float64 {
	r.tr.begin("sim.Step")
	start := time.Now()
	r.sys.Step()
	d := time.Since(start).Seconds()
	r.tr.end()
	return d
}

func (r *round) stepN(k int) {
	for i := 0; i < k; i++ {
		r.step()
	}
}

func (r *round) descend() {
	sys := r.sys
	cv0 := cv(sys.Heights())
	settle()
	r.tr.begin("bench.descend")
	start := time.Now()
	var ticks int
	var ok bool
	if r.tr == nil {
		ticks, ok = sys.RunUntilBalanced(r.sp.eps, r.sp.maxTicks)
	} else {
		// The same predicate RunUntilBalanced evaluates before each tick,
		// with a span around each Step and each CV computation.
		for ticks = 0; ticks < r.sp.maxTicks; ticks++ {
			r.tr.begin("stats.CV")
			c := stats.CV(sys.State().Heights())
			r.tr.end()
			if ok = c < r.sp.eps && sys.State().InFlight() == 0; ok {
				break
			}
			r.step()
		}
	}
	elapsed := time.Since(start).Seconds()
	r.tr.end()
	r.out.ops++
	if !ok {
		r.out.check(fmt.Errorf("descent did not reach CV < %v within %d ticks", r.sp.eps, r.sp.maxTicks))
		return
	}
	r.out.add("balance_s", elapsed)
	r.out.add("balance_ticks", float64(ticks))

	wantTasks, wantLoad := expectedInitial(r.sp)
	tasks, load := residents(sys.State())
	r.out.check(checkPopulation(int(tasks), load, wantTasks, wantLoad))
	r.out.check(checkBalanced(sys.Loads(), r.sp.eps))
	col := sys.Metrics()
	cvAt := func(t int) float64 {
		for i, x := range col.Ticks {
			if int(x) == t {
				return col.CV[i]
			}
		}
		return cv0
	}
	r.out.check(checkDescent([]float64{cv0, cvAt(ticks / 4), cvAt(ticks / 2), cvAt(3 * ticks / 4), cvAt(ticks)}))
}

// restore rebuilds the system from blob on g in the serve configuration.
// Untraced, it lets RestoreSystem build the default links, as a caller
// that uses default links does; traced, the links are built first so that
// the engine's restore has a span of its own.
func (r *round) restore(blob []byte, g *topology.Graph) (*pplb.System, error) {
	opts := r.options(true)
	if r.tr != nil {
		r.tr.begin("linkmodel.New")
		links := linkmodel.New(g)
		r.tr.end()
		opts = append(opts, pplb.WithLinks(links))
	}
	r.tr.begin("sim.RestoreSystem")
	defer r.tr.end()
	return pplb.RestoreSystem(g, r.policy(), blob, opts...)
}

func (r *round) snapshot() ([]byte, error) {
	r.tr.begin("sim.Snapshot")
	defer r.tr.end()
	return r.sys.Snapshot()
}

// timedSnapshot takes a snapshot after a forced GC and records its time.
func (r *round) timedSnapshot() ([]byte, error) {
	settle()
	start := time.Now()
	blob, err := r.snapshot()
	if err != nil {
		return nil, fmt.Errorf("Snapshot: %w", err)
	}
	r.out.add("snapshot_s", time.Since(start).Seconds())
	r.out.ops++
	return blob, nil
}

// timedRestore closes the current system, restores blob on g after a
// forced GC, records the time and checks that the restored system
// snapshots to the same bytes.
func (r *round) timedRestore(blob []byte, g *topology.Graph) error {
	r.sys.Close()
	r.sys = nil
	settle()
	start := time.Now()
	sys, err := r.restore(blob, g)
	if err != nil {
		return fmt.Errorf("RestoreSystem: %w", err)
	}
	r.out.add("restore_s", time.Since(start).Seconds())
	r.out.ops++
	r.sys = sys
	again, err := r.snapshot()
	if err != nil {
		return fmt.Errorf("Snapshot: %w", err)
	}
	r.out.check(checkSameBytes("snapshot -> restore -> snapshot", blob, again))
	return nil
}

func (r *round) serve() error {
	r.tr.begin("bench.serve")
	defer r.tr.end()
	blob, err := r.timedSnapshot()
	if err != nil {
		return err
	}
	r.out.add("snapshot_mb", float64(len(blob))/1e6)
	if err := r.timedRestore(blob, r.g); err != nil {
		return err
	}
	blob = nil
	settle()
	r.stepN(r.sp.warmTicks)

	st := r.sys.State()
	c0 := st.Counters()
	tasks0, load0 := residents(st)
	resp0 := st.ResponseTimes().State()
	tally0 := r.tally
	subStart, subTime := c0.TasksCompleted, 0.0
	for i := 1; i <= r.sp.windowTicks; i++ {
		d := r.step()
		r.out.add("tick_p50_us", d*1e6)
		r.stepUs = append(r.stepUs, d*1e6)
		subTime += d
		if i%r.sp.subTicks == 0 {
			done := st.Counters().TasksCompleted
			r.out.add("tasks_per_s", float64(done-subStart)/subTime)
			subStart, subTime = done, 0
		}
	}
	r.out.ops++
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.out.add("heap_mb", float64(ms.HeapAlloc)/1e6)
	c1 := st.Counters()
	tasks1, load1 := residents(st)
	resp1 := st.ResponseTimes().State()
	if n := resp1.N - resp0.N; n > 0 {
		r.out.add("resp_ticks", (resp1.Mean*float64(resp1.N)-resp0.Mean*float64(resp0.N))/float64(n))
	} else {
		r.out.check(fmt.Errorf("no task completed in the serve window"))
	}
	r.out.check(checkArrivals(r.tally.load-tally0.load, c1.Injected-c0.Injected))
	r.out.check(checkConservation(c1.Injected, c1.Consumed, load1-st.InFlightLoad(), st.InFlightLoad()))
	r.out.check(checkCompletions(c1.TasksCompleted-c0.TasksCompleted, r.tally.count-tally0.count, tasks0, tasks1))
	r.out.check(checkBacklog(load0, load1, backlogBound(r.sp)))
	if r.tp != nil {
		plans, proposed, _ := r.tp.totals()
		tick := float64(st.Tick())
		r.out.add("core.plans_per_tick", float64(plans)/tick)
		r.out.add("core.moves_per_tick", float64(proposed)/tick)
		r.out.add("sim.migrations_per_tick", float64(c1.Migrations)/tick)
		if proposed > 0 {
			r.out.add("sim.accepted_ratio", float64(proposed-c1.Rejected)/float64(proposed))
		}
		r.out.add("sim.active_nodes", float64(r.activeSum)/float64(r.obsTicks))
	}
	return nil
}

// backlogBound is how far the serve window's backlog may drift: half the
// load of 50 ticks of arrivals. The stationary backlog holds near one tick
// of arrivals, so a real drift shows within the window.
func backlogBound(sp spec) float64 {
	return 25 * (sp.arrivalRate*float64(sp.n()) + sp.hotRate)
}

// cycles runs snapshot -> restore -> reconfigure cycles on the serving
// system. Each cycle steps the original and the restored system the same
// ticks and compares their snapshots, then applies one topology change
// through DynamicGraph.Commit, linkmodel.New and System.Reconfigure. The
// changes cycle through a node leaving, a node joining with links, a link
// failing and that link being repaired.
func (r *round) cycles() error {
	r.tr.begin("bench.cycles")
	defer r.tr.end()
	pick := rand.New(rand.NewPCG(r.in.pickSeed, 0x6379636c6573))
	d := topology.NewDynamic(r.g)
	var failU, failW int
	for i := 0; i < r.sp.cycles; i++ {
		blob, err := r.timedSnapshot()
		if err != nil {
			return err
		}
		r.stepN(r.sp.gapTicks)
		after, err := r.snapshot()
		if err != nil {
			return fmt.Errorf("Snapshot: %w", err)
		}
		if err := r.timedRestore(blob, r.g); err != nil {
			return err
		}
		blob = nil
		r.stepN(r.sp.gapTicks)
		again, err := r.snapshot()
		if err != nil {
			return fmt.Errorf("Snapshot: %w", err)
		}
		r.out.check(checkSameBytes("original and restored system after the same ticks", after, again))
		again = nil

		switch i % 4 {
		case 0:
			d.Leave(r.pickNode(pick, d))
		case 1:
			u := r.pickNode(pick, d)
			p := r.g.Coord(u)
			v := d.Join(topology.Point2{X: p.X + 0.5, Y: p.Y + 0.5})
			d.AddLink(v, u)
			for _, w := range r.g.Neighbors(u)[:min(3, r.g.Degree(u))] {
				d.AddLink(v, w)
			}
		case 2:
			failU = r.pickNode(pick, d)
			nb := r.g.Neighbors(failU)
			failW = nb[pick.IntN(len(nb))]
			d.FailLink(failU, failW)
		case 3:
			d.RepairLink(failU, failW)
		}
		if err := r.reconfigure(d, after); err != nil {
			return err
		}
	}
	st := r.sys.State()
	c := st.Counters()
	_, load := residents(st)
	r.out.check(checkConservation(c.Injected, c.Consumed, load-st.InFlightLoad(), st.InFlightLoad()))
	return nil
}

// pickNode draws an alive node that still has links.
func (r *round) pickNode(pick *rand.Rand, d *topology.Dynamic) int {
	for {
		v := pick.IntN(r.g.N())
		if d.Alive(v) && r.g.Degree(v) > 0 {
			return v
		}
	}
}

// reconfigure commits d's staged change and applies it, timed, then checks
// it; stale is a snapshot of the system just before the change.
func (r *round) reconfigure(d *topology.Dynamic, stale []byte) error {
	tr := r.tr
	st := r.sys.State()
	_, load := residents(st)
	before := reconfigState{epoch: r.sys.Epoch(), load: load}
	settle()
	start := time.Now()
	tr.begin("topology.Commit")
	g, epoch := d.Commit()
	tr.end()
	tr.begin("linkmodel.New")
	links := linkmodel.New(g)
	tr.end()
	tr.begin("sim.Reconfigure")
	err := r.sys.Reconfigure(pplb.Reconfig{Graph: g, Links: links, Epoch: epoch, Dead: d.DeadNodes()})
	tr.end()
	if err != nil {
		return fmt.Errorf("Reconfigure: %w", err)
	}
	r.out.add("reconfigure_s", time.Since(start).Seconds())
	r.out.ops++
	r.g = g

	st = r.sys.State()
	_, load = residents(st)
	after := reconfigState{epoch: r.sys.Epoch(), load: load}
	var dead []deadNode
	for _, v := range d.DeadNodes() {
		q := st.Queue(v)
		dead = append(dead, deadNode{id: v, alive: st.NodeAlive(v), tasks: q.Len(), load: q.Total()})
	}
	r.out.check(checkReconfig(before, after, dead))
	if epoch != after.epoch {
		r.out.check(fmt.Errorf("reconfigure: committed epoch %d, system reports %d", epoch, after.epoch))
	}
	wrong, err := pplb.RestoreSystem(g, r.policy(), stale, pplb.WithSeed(r.in.seed))
	if err == nil {
		wrong.Close()
	}
	r.out.check(checkStaleRestore(err))
	return nil
}

// settle runs before every timed section: it forces a collection and
// returns freed memory to the operating system, so that each timed call
// starts from the same heap state rather than from whatever the background
// scavenger happened to leave mapped.
func settle() { debug.FreeOSMemory() }
