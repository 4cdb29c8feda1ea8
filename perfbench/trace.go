package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pplb/internal/core"
	"pplb/internal/rng"
	"pplb/internal/sim"
)

// tracer records spans around the benchmark's calls into the program's
// layers. The layer is the span name's prefix before the first dot. All
// methods are no-ops on a nil *tracer, so untraced rounds pay one nil check
// per call site. A tracer is used from one goroutine only.
type tracer struct {
	t0      time.Time
	open    []openSpan
	spans   []span
	kept    map[string]int       // spans kept per name
	dropped map[string]int       // spans timed but not kept, beyond spansPerName
	self    map[string]float64   // self seconds per layer
	samples map[string][]float64 // durations in seconds per name
	nextID  int32

	// Planning calls, recorded by planCall.
	planSelf    time.Duration
	planKept    int
	planDropped int
}

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	id, parent int32
	name       string
	start      time.Time
	child      time.Duration
}

// spansPerName bounds the span file: a converge descent makes about two
// million planning calls. Calls beyond the bound still count towards the
// samples and the self times.
const spansPerName = 20000

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		kept:    map[string]int{},
		dropped: map[string]int{},
		self:    map[string]float64{},
		samples: map[string][]float64{},
	}
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	var parent int32
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].id
	}
	t.nextID++
	t.open = append(t.open, openSpan{id: t.nextID, parent: parent, name: name, start: time.Now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := now.Sub(o.start)
	t.self[layerOf(o.name)] += (dur - o.child).Seconds()
	if n := len(t.open); n > 0 {
		t.open[n-1].child += dur
	}
	t.samples[o.name] = append(t.samples[o.name], dur.Seconds())
	if t.kept[o.name] < spansPerName {
		t.kept[o.name]++
		t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Name: o.name,
			Start: o.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds()})
	} else {
		t.dropped[o.name]++
	}
}

const planSpan = "core.PlanNodeInto"

// tracedPolicy wraps the PPLB balancer and counts every planning call and
// the moves it proposes. It forwards PlanNodeInto and PlanLocality, so the
// engine keeps its allocation-free planning path and its active set.
// Planning runs on the engine's workers, so the counters are atomic, and
// spread over one cache line per node range so that workers planning
// different shards do not contend. When tr is set, which the session does
// only for a Workers=1 engine, whose planning runs on the calling goroutine,
// each call is also timed and recorded as a span.
type tracedPolicy struct {
	inner  *core.Balancer
	tr     *tracer
	counts [planShards]planCounter
}

const planShards = 16

type planCounter struct {
	plans, moves, ns atomic.Int64
	_                [40]byte
}

func (p *tracedPolicy) Name() string               { return p.inner.Name() }
func (p *tracedPolicy) PlanLocality() sim.Locality { return p.inner.PlanLocality() }

func (p *tracedPolicy) PlanNode(v int, view *sim.View, r *rng.RNG) []sim.Move {
	return p.PlanNodeInto(v, view, r, nil)
}

func (p *tracedPolicy) PlanNodeInto(v int, view *sim.View, r *rng.RNG, buf []sim.Move) []sim.Move {
	c := &p.counts[v*planShards/view.N()]
	if p.tr == nil {
		out := p.inner.PlanNodeInto(v, view, r, buf)
		c.plans.Add(1)
		c.moves.Add(int64(len(out)))
		return out
	}
	start := time.Now()
	out := p.inner.PlanNodeInto(v, view, r, buf)
	end := time.Now()
	c.ns.Add(int64(end.Sub(start)))
	c.plans.Add(1)
	c.moves.Add(int64(len(out)))
	p.tr.planCall(start, end)
	return out
}

// totals sums the counters: planning calls, moves proposed, and time spent
// planning.
func (p *tracedPolicy) totals() (plans, moves int64, ns time.Duration) {
	for i := range p.counts {
		plans += p.counts[i].plans.Load()
		moves += p.counts[i].moves.Load()
		ns += time.Duration(p.counts[i].ns.Load())
	}
	return plans, moves, ns
}

func (p *tracedPolicy) reset() {
	for i := range p.counts {
		p.counts[i].plans.Store(0)
		p.counts[i].moves.Store(0)
		p.counts[i].ns.Store(0)
	}
}

// planCall records one planning call as a child of the innermost open span.
// It is cheaper than begin and end, which keeps the Workers=1 round's
// instrumentation close to the Workers=2 round's: after the first
// spansPerName calls it only adds the call's time to the open span and to
// the core layer.
func (t *tracer) planCall(start, end time.Time) {
	if t == nil {
		return
	}
	d := end.Sub(start)
	t.planSelf += d
	n := len(t.open)
	var parent int32
	if n > 0 {
		t.open[n-1].child += d
		parent = t.open[n-1].id
	}
	if t.planKept < spansPerName {
		t.planKept++
		t.nextID++
		t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Name: planSpan,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	} else {
		t.planDropped++
	}
}

// spanFile is what a traced run writes at its end.
type spanFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Rounds   []tracedRoundSpans `json:"rounds"`
}

type tracedRoundSpans struct {
	Label   string             `json:"label"`
	Workers int                `json:"workers"`
	SelfS   map[string]float64 `json:"self_s"`
	Dropped map[string]int     `json:"dropped"`
	Spans   []span             `json:"spans"`
}

func (t *tracer) export(label string, workers int) tracedRoundSpans {
	dropped := maps.Clone(t.dropped)
	if t.planKept > 0 {
		dropped[planSpan] = t.planDropped
	}
	return tracedRoundSpans{Label: label, Workers: workers, SelfS: t.selfTimes(), Dropped: dropped, Spans: t.spans}
}

// selfTimes returns the self seconds per layer, planning included.
func (t *tracer) selfTimes() map[string]float64 {
	self := maps.Clone(t.self)
	if t.planKept > 0 {
		self[layerOf(planSpan)] += t.planSelf.Seconds()
	}
	return self
}

func writeSpans(path string, f spanFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTable renders self times per layer, largest first.
func selfTable(self map[string]float64) string {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var b strings.Builder
	for _, l := range layers {
		b.WriteString("    ")
		b.WriteString(l)
		b.WriteString(strings.Repeat(" ", max(1, 10-len(l))))
		b.WriteString(time.Duration(self[l] * float64(time.Second)).Round(time.Microsecond).String())
		b.WriteString("\n")
	}
	return b.String()
}
