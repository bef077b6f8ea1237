package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/resource"
)

// The traced run wraps only what callers hand the program: each cost.Model
// of the optimizer's model set and the resource.Planner inside the
// resource.Cache it is given. Spans of the coarse layers (ServeHTTP,
// core.Optimizer, arbiter.Arbiter.Run, cloud.Arbiter.Run) are recorded by
// the workloads around their calls. The fine layers are kept as counters
// rather than individual spans (up to 10^8 model evaluations a run): every
// resource-planner call is timed, and every model evaluation is counted.
// An evaluation takes about as long as reading the clock twice, so timing
// each one would mostly measure the clock; instead the evaluations' busy
// time is their count times the mean cost of one, measured at the end of
// the run by replaying a sample of the run's own evaluations. Every child
// call happens on its parent's goroutine and inside its parent's span, so
// a layer's self time is its spans' total minus its children's total.

// costSampleEvery is how often an evaluation's arguments are kept for the
// replay that prices one evaluation.
const costSampleEvery = 16

// maxCostSamples bounds the kept evaluations.
const maxCostSamples = 4096

// costSample is one model evaluation kept for the replay.
type costSample struct {
	m          cost.Model
	ss, cs, nc float64
}

// maxSpans bounds the spans kept in memory; later spans are counted as
// dropped.
const maxSpans = 1 << 20

// span is one coarse-layer call. Caller identifies the closed-loop caller
// (or replay) the call belongs to; times are nanoseconds since the
// tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Caller int    `json:"caller"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects one traced pass.
type tracer struct {
	epoch time.Time
	// costN counts model evaluations made by the coster directly,
	// costInResN those made by the resource planner while climbing.
	costN, costInResN atomic.Int64
	// resN and resNs count and time inner resource-planner calls (cache
	// misses); resEvals sums the configurations they priced.
	resN, resNs, resEvals atomic.Int64

	mu      sync.Mutex
	spans   []span       // guarded by mu
	dropped int64        // guarded by mu
	samples []costSample // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// countEval counts one model evaluation, keeping every costSampleEvery-th
// for the replay (the latest maxCostSamples of them).
func (t *tracer) countEval(n *atomic.Int64, m cost.Model, ss, cs, nc float64) {
	k := n.Add(1)
	if k%costSampleEvery != 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cs0 := costSample{m: m, ss: ss, cs: cs, nc: nc}
	if len(t.samples) < maxCostSamples {
		t.samples = append(t.samples, cs0)
	} else {
		t.samples[(k/costSampleEvery)%maxCostSamples] = cs0
	}
}

// evalNs replays the kept evaluations (about 2^18 calls) and returns the
// mean nanoseconds of one; 0 when none were kept.
func (t *tracer) evalNs() float64 {
	t.mu.Lock()
	samples := append([]costSample(nil), t.samples...)
	t.mu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	reps := max(1, (1<<18)/len(samples))
	sum := 0.0
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range samples {
			sum += s.m.Cost(s.ss, s.cs, s.nc)
		}
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(reps*len(samples))
	evalSink = sum
	return ns
}

// evalSink keeps the replayed evaluations' results live.
var evalSink float64

// record keeps one coarse span that started at start and ends now.
func (t *tracer) record(name string, caller int, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Name: name, Caller: caller,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// counters is a snapshot of the fine-layer counters.
type counters struct {
	costN, costInResN, resN, resNs, resEvals int64
}

func (t *tracer) snapshot() counters {
	return counters{
		costN: t.costN.Load(), costInResN: t.costInResN.Load(),
		resN: t.resN.Load(), resNs: t.resNs.Load(), resEvals: t.resEvals.Load(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		costN: c.costN - o.costN, costInResN: c.costInResN - o.costInResN,
		resN: c.resN - o.resN, resNs: c.resNs - o.resNs, resEvals: c.resEvals - o.resEvals,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		costN: c.costN + o.costN, costInResN: c.costInResN + o.costInResN,
		resN: c.resN + o.resN, resNs: c.resNs + o.resNs, resEvals: c.resEvals + o.resEvals,
	}
}

// evals is every model evaluation counted.
func (c counters) evals() int64 { return c.costN + c.costInResN }

// childNs is the time spent below the optimizer: resource planning (which
// contains its own model evaluations) plus the coster's direct model
// evaluations, each priced at evalNs.
func (c counters) childNs(evalNs float64) int64 { return c.resNs + int64(float64(c.costN)*evalNs) }

// spanTotals sums the durations and counts the spans of one name.
func (t *tracer) spanTotals(name string) (n int, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			n++
			ns += s.End - s.Start
		}
	}
	return n, ns
}

// write stores the kept spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedModel counts every evaluation of one cost model and keeps its name,
// so model-keyed caches and memos behave exactly as without tracing.
type tracedModel struct {
	inner cost.Model
	tr    *tracer
	// inRes is the sibling handed to the resource planner, whose
	// evaluations count as resource-planning children; nil on the sibling.
	inRes *tracedModel
}

func newTracedModel(m cost.Model, tr *tracer) *tracedModel {
	return &tracedModel{inner: m, tr: tr, inRes: &tracedModel{inner: m, tr: tr}}
}

// Cost implements cost.Model.
func (m *tracedModel) Cost(ss, cs, nc float64) float64 {
	n := &m.tr.costN
	if m.inRes == nil {
		n = &m.tr.costInResN
	}
	m.tr.countEval(n, m.inner, ss, cs, nc)
	return m.inner.Cost(ss, cs, nc)
}

// Name implements cost.Model.
func (m *tracedModel) Name() string { return m.inner.Name() }

// traceModels wraps every model of the set; with tr nil it returns models.
func traceModels(models *cost.Models, tr *tracer) *cost.Models {
	if tr == nil {
		return models
	}
	out := cost.NewModels()
	for _, a := range plan.Algos {
		if m, ok := models.For(a); ok {
			out.Set(a, newTracedModel(m, tr))
		}
	}
	return out
}

// tracedPlanner times every call into the wrapped resource planner and
// counts the configurations it priced. It keeps resource.Counted, so the
// optimizer's per-call attribution stays exact.
type tracedPlanner struct {
	inner resource.Counted
	tr    *tracer
}

// tracePlanner wraps p; with tr nil it returns p.
func tracePlanner(p resource.Counted, tr *tracer) resource.Planner {
	if tr == nil {
		return p
	}
	return &tracedPlanner{inner: p, tr: tr}
}

// Plan implements resource.Planner.
func (p *tracedPlanner) Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error) {
	r, _, err := p.PlanCounted(m, ssGB, cond)
	return r, err
}

// PlanCounted implements resource.Counted.
func (p *tracedPlanner) PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	if tm, ok := m.(*tracedModel); ok && tm.inRes != nil {
		m = tm.inRes
	}
	start := time.Now()
	r, n, err := p.inner.PlanCounted(m, ssGB, cond)
	p.tr.resNs.Add(time.Since(start).Nanoseconds())
	p.tr.resN.Add(1)
	p.tr.resEvals.Add(n)
	return r, n, err
}

// Evaluations implements resource.Planner.
func (p *tracedPlanner) Evaluations() int64 { return p.inner.Evaluations() }

// addFineMetrics adds the resource and cost layers' per-operation metrics
// from counter deltas c over ops operations, pricing each model evaluation
// at evalNs.
func addFineMetrics(m map[string]float64, c counters, evalNs float64, ops int64) {
	m["resource.calls"] = perOp(float64(c.resN), ops)
	m["resource.evals"] = perOp(float64(c.resEvals), ops)
	m["resource.busy_us"] = usPerOp(c.resNs, ops)
	m["cost.evals"] = perOp(float64(c.evals()), ops)
	m["cost.busy_us"] = perOp(float64(c.evals())*evalNs/1e3, ops)
}

// perOp divides a total by the operation count (0 when there were none).
func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// usPerOp converts a nanosecond total into microseconds per operation.
func usPerOp(ns int64, ops int64) float64 { return perOp(float64(ns)/1e3, ops) }

// ratio is hits/(hits+misses), 0 without lookups.
func ratio(hits, lookups int64) float64 {
	if lookups <= 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}
