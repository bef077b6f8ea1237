package main

import (
	"fmt"
	"math/rand"
	"time"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

// plan-scale: the paper's Section VII-C sweep. Every plan is a cold call:
// a fresh core.Optimizer with a fresh per-query resource cache, planning a
// random connected query over a 100-table schema built with the paper's
// recipe, with FastRandomized and the published coefficients unfloored (as
// Figure 15b ran them). A round is a fixed grid of query sizes and cluster
// conditions; a run plays whole rounds. The run's seed draws the queries
// and seeds the planner; the schema comes from a fixed seed, as in the
// paper's Figure 15, so runs differ in their queries, not in their tables.

const (
	scaleSetups = 15
	// scaleSchemaSeed is the seed of the Figure 15 schema.
	scaleSchemaSeed = 715
)

// scaleRandomized is the light randomized-planner budget of Figure 15.
var scaleRandomized = randomized.Options{Iterations: 3, Seeds: 4, MutationsPerPlan: 2}

// scaleGroup is one cluster scale of the round grid: the query sizes
// planned at it and the container-size caps they cycle through.
type scaleGroup struct {
	maxContainers int
	sizes         []int
	maxGB         []float64
}

// scaleGrid is the round: the query-size sweep of Figure 15a at the
// paper's default cluster (every third size from 10 to 100) and at 1K
// containers, and the cluster sweep of Figure 15b (10K and 100K
// containers, 10 to 100 GB) at nine query sizes each. The cheap
// small-cluster plans are the majority, so the median plan is one of them;
// the large clusters dominate the round's time and its slowest tenth.
func scaleGrid() []scaleGroup {
	var paper, sweep []int
	for k := 10; k <= 100; k += 3 {
		paper = append(paper, k)
	}
	for k := 20; k <= 100; k += 10 {
		sweep = append(sweep, k)
	}
	big := []float64{10, 40, 70, 100}
	return []scaleGroup{
		{maxContainers: 100, sizes: paper, maxGB: []float64{10}},
		{maxContainers: 1_000, sizes: []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, maxGB: []float64{10}},
		{maxContainers: 10_000, sizes: sweep, maxGB: big},
		{maxContainers: 100_000, sizes: sweep, maxGB: big},
	}
}

// scaleCell is one plan of the round.
type scaleCell struct {
	q    *plan.Query
	cond cluster.Conditions
	grid grid
}

// scaleConditions follows Figure 15b: containers from 1 in steps of
// max(1, maxC/20000), sizes from 1 GB in steps of 1 GB.
func scaleConditions(maxC int, maxGB float64) (cluster.Conditions, grid) {
	step := max(1, maxC/20_000)
	cond := cluster.Conditions{MinContainers: 1, MaxContainers: maxC, ContainerStep: step,
		MinContainerGB: 1, MaxContainerGB: maxGB, GBStep: 1}
	return cond, grid{minC: 1, maxC: maxC, stepC: step, minGB: 1, maxGB: maxGB, stepGB: 1}
}

// scaleRound builds the schema and the round's queries drawn from seed.
func scaleRound(seed int64) ([]scaleCell, error) {
	s, err := catalog.Random(rand.New(rand.NewSource(scaleSchemaSeed)), 100, catalog.DefaultRandomConfig())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var cells []scaleCell
	for _, g := range scaleGrid() {
		for i, k := range g.sizes {
			q, err := workload.RandomQuery(rng, s, k)
			if err != nil {
				return nil, err
			}
			cond, gr := scaleConditions(g.maxContainers, g.maxGB[i%len(g.maxGB)])
			cells = append(cells, scaleCell{q: q, cond: cond, grid: gr})
		}
	}
	return cells, nil
}

// scaleStats accumulates one phase of rounds; each round is a window.
type scaleStats struct {
	plans       int64
	rounds      []window // latencies are core.New + Optimize
	considered  int64
	cacheHits   int64
	cacheMisses int64
}

// planRounds plays whole rounds until d has passed (at least one), each
// plan cold, and checks every answer. With tr set each Optimize call is a
// "core" span.
func planRounds(cells []scaleCell, seed int64, d time.Duration, tr *tracer) (*scaleStats, error) {
	models := traceModels(cost.PaperModelsUnfloored(), tr)
	st := &scaleStats{}
	start := time.Now()
	for st.plans == 0 || time.Since(start) < d {
		round := window{lat: make([]float64, 0, len(cells))}
		roundStart := time.Now()
		for _, c := range cells {
			cache := &resource.Cache{Inner: tracePlanner(&resource.HillClimb{}, tr), Mode: resource.Exact, ThresholdGB: 0.01}
			t0 := time.Now()
			opt, err := core.New(c.cond, core.Options{Planner: core.FastRandomized, Seed: seed,
				Randomized: scaleRandomized, Models: models, Resource: cache})
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			dec, err := opt.Optimize(c.q)
			if err != nil {
				return nil, fmt.Errorf("planning %d relations at %v: %w", len(c.q.Rels), c.cond, err)
			}
			if tr != nil {
				tr.record("core", 0, t1)
			}
			round.lat = append(round.lat, float64(time.Since(t0).Nanoseconds())/1e3)
			round.ops++
			st.plans++
			st.considered += int64(dec.PlansConsidered)
			cs := cache.Stats()
			st.cacheHits += cs.Hits
			st.cacheMisses += cs.Misses
			if err := checkRelations(dec.Plan, c.q.Rels); err != nil {
				return nil, err
			}
			if err := checkLocalOptimum(dec.Plan, c.grid); err != nil {
				return nil, fmt.Errorf("%d relations at %v: %w", len(c.q.Rels), c.cond, err)
			}
		}
		round.wall = time.Since(roundStart)
		round.rssMB = residentMB()
		st.rounds = append(st.rounds, round)
	}
	return st, nil
}

func runScale(o options) (*outcome, error) {
	setup := &setupTimer[[]scaleCell]{n: scaleSetups, build: func() ([]scaleCell, error) { return scaleRound(o.seed) }}
	cells, err := setup.before()
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		return traceScale(o, cells, d)
	}
	st, err := planRounds(cells, o.seed, d, nil)
	if err != nil {
		return nil, err
	}
	m := windowMetrics(st.rounds)
	if m["setup_s"], err = setup.after(); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: st.plans,
		metrics:   m,
		notes: []string{fmt.Sprintf("plan-scale: %d cold plans (%d rounds of %d)",
			st.plans, st.plans/int64(len(cells)), len(cells))},
	}, nil
}

// merge adds another phase's rounds to st.
func (st *scaleStats) merge(o *scaleStats) {
	st.plans += o.plans
	st.rounds = append(st.rounds, o.rounds...)
	st.considered += o.considered
	st.cacheHits += o.cacheHits
	st.cacheMisses += o.cacheMisses
}

// traceScale alternates untraced and traced rounds until d has passed, so
// a shared machine's drift falls on both alike. The rounds are identical,
// so per-plan counts repeat exactly and mean plan latencies compare
// directly.
func traceScale(o options, cells []scaleCell, d time.Duration) (*outcome, error) {
	tr := newTracer()
	untraced, traced := &scaleStats{}, &scaleStats{}
	for start := time.Now(); time.Since(start) < d; {
		u, err := planRounds(cells, o.seed, 0, nil)
		if err != nil {
			return nil, err
		}
		untraced.merge(u)
		t, err := planRounds(cells, o.seed, 0, tr)
		if err != nil {
			return nil, err
		}
		traced.merge(t)
	}
	fine := tr.snapshot()
	evalNs := tr.evalNs()
	_, coreNs := tr.spanTotals("core")
	n := traced.plans
	m := map[string]float64{
		"core.optimize_us":           usPerOp(coreNs, n),
		"optimizer.self_us":          usPerOp(coreNs-fine.childNs(evalNs), n),
		"optimizer.plans_considered": perOp(float64(traced.considered), n),
		"resource.cache_lookups":     perOp(float64(traced.cacheHits+traced.cacheMisses), n),
		"resource.cache_hit_ratio":   ratio(traced.cacheHits, traced.cacheHits+traced.cacheMisses),
		"trace.overhead_pct":         (meanLatency(traced.rounds)/meanLatency(untraced.rounds) - 1) * 100,
	}
	addFineMetrics(m, fine, evalNs, n)
	if err := tr.write(".bench_build/spans", fmt.Sprintf("plan-scale-%d.jsonl", o.seed)); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: untraced.plans + traced.plans,
		metrics:   m,
		notes: []string{fmt.Sprintf("plan-scale traced: %d untraced and %d traced cold plans",
			untraced.plans, traced.plans)},
	}, nil
}
