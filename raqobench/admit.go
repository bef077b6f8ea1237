package main

import (
	"fmt"
	"math"
	"time"

	"raqo/internal/arbiter"
	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/scheduler"
	"raqo/internal/workload"
)

// admit-replay: bursty multi-tenant open-loop arrival traces in virtual
// time, replayed as fast as possible through both admission engines. A
// round is four replays, each on fresh engine state:
//
//   - arbiter: arbiter.Arbiter under Reoptimize on the Hive profile with
//     Hive-trained models, completions flowing into feedback (no
//     recalibration), over the seeded trace;
//   - fault-a: the same on the Spark profile, over a fixed trace — fault
//     (a), chained broadcasts pruned one at a time, fails Q2 admissions;
//   - fault-b: the Hive configuration with recalibration every
//     faultRecalEvery completions, over the fixed trace — fault (b),
//     recalibration accepting worse models, fails admissions;
//   - cloud: cloud.Arbiter with on-demand plus elastic spot capacity, the
//     autoscaler and seeded faults including one preemption storm, over a
//     second seeded trace.
//
// The faulty replays use a trace that does not depend on the seed, so a
// round fails the same operations whatever the seed.

const (
	admitSetups     = 11
	admitArrivals   = 2000 // per seeded replay
	faultArrivals   = 1000 // per fixed-trace replay
	faultTraceSeed  = 20180416
	faultRecalEvery = 50
	arbiterCapacity = 100
	// The mean inter-arrival times keep both engines busy without an
	// ever-growing backlog: P95 queue waits of a few hours of virtual time.
	arbiterMeanInterval = 240.0
	cloudMeanInterval   = 480.0
)

var (
	admitTenants = []arbiter.TenantConfig{{Name: "etl", Weight: 2}, {Name: "bi", Weight: 1}, {Name: "adhoc", Weight: 1}}
	admitShares  = []arbiter.TenantShare{{Name: "etl", Weight: 2}, {Name: "bi", Weight: 1}, {Name: "adhoc", Weight: 1}}
	admitMix     = []arbiter.QueryMix{{Name: workload.Q12, Weight: 4}, {Name: workload.Q3, Weight: 3},
		{Name: workload.Q2, Weight: 2}, {Name: workload.All, Weight: 1}}
)

// admitEnv is the replays' shared, read-only input.
type admitEnv struct {
	models      *cost.Models
	queries     map[string]*plan.Query
	main, fault []arbiter.Arrival
	cloudTrace  []cloud.Arrival
	cloudFaults cloud.FaultConfig
}

func arbiterTrace(seed int64, n int) ([]arbiter.Arrival, error) {
	return arbiter.GenerateArrivals(arbiter.WorkloadConfig{Seed: seed, Arrivals: n, MeanIntervalSeconds: arbiterMeanInterval,
		BurstSize: 10, Tenants: admitShares, Mix: admitMix, Policy: scheduler.Reoptimize})
}

func newAdmitEnv(seed int64) (*admitEnv, error) {
	models, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		return nil, err
	}
	queries, err := workload.TPCHQueries(catalog.TPCH(100))
	if err != nil {
		return nil, err
	}
	env := &admitEnv{models: models, queries: queries}
	if env.main, err = arbiterTrace(seed, admitArrivals); err != nil {
		return nil, err
	}
	if env.fault, err = arbiterTrace(faultTraceSeed, faultArrivals); err != nil {
		return nil, err
	}
	shares := make([]cloud.Share, len(admitShares))
	for i, s := range admitShares {
		shares[i] = cloud.Share{Name: s.Name, Weight: s.Weight}
	}
	mix := make([]cloud.Share, len(admitMix))
	for i, m := range admitMix {
		mix[i] = cloud.Share{Name: m.Name, Weight: m.Weight}
	}
	env.cloudTrace, err = cloud.GenerateTrace(cloud.TraceConfig{Seed: seed, Arrivals: admitArrivals,
		MeanIntervalSeconds: cloudMeanInterval, Shape: cloud.Bursty, Tenants: shares, Mix: mix,
		Recovery: cloud.RecoverReoptimize})
	if err != nil {
		return nil, err
	}
	env.cloudFaults = cloud.FaultConfig{Seed: seed, SpotMeanLifeSeconds: 7200, StragglerProb: 0.1, OOMProb: 0.05,
		StormAtSeconds: admitArrivals * cloudMeanInterval / 2, StormFraction: 0.5}
	return env, nil
}

// cloudMarket is 12 on-demand 10 GB containers plus a spot class the
// autoscaler moves between 4 and 60 containers.
func cloudMarket() cloud.Market {
	m := cloud.DefaultMarket(12, 24, 0.7)
	m.Classes[1].Count = 8
	m.Classes[1].MinCount = 4
	m.Classes[1].MaxCount = 60
	return m
}

// replayCounts is what one replay contributes to a round.
type replayCounts struct {
	arrivals, failed  int64
	failedByQuery     map[string]int64
	runNs             int64
	fine              counters // fine-layer counters inside the replay
	recalNs           int64
	recals, replanned int64
	observations      int64
	reopt             core.IncrementalStats
	memoHits, memoMis int64
	cacheHits, cacheM int64
	queueP95          float64
	// cloud only
	preemptions, scaleEvents, recoveries int64
	usdPerQuery                          float64
}

// newOptimizer builds an admission optimizer the way server.New builds
// its arbiter optimizers (memory-aware, cost memo on), plus a resource
// cache the recalibrator invalidates on every model swap.
func newOptimizer(models *cost.Models, engine execsim.Params, tr *tracer) (*core.Optimizer, *resource.Cache, error) {
	cache := &resource.Cache{Inner: tracePlanner(&resource.HillClimb{}, tr), Mode: resource.NearestNeighbor, ThresholdGB: 1}
	opt, err := core.New(cluster.Default(), core.Options{
		Models:       traceModels(models, tr),
		Engine:       &engine,
		MemoizeCosts: true,
		Resource:     cache,
	})
	return opt, cache, err
}

// replayArbiter replays arrivals through a fresh arbiter and checks the
// outcomes.
func replayArbiter(env *admitEnv, arrivals []arbiter.Arrival, engine execsim.Params, recalEvery int, tr *tracer) (*replayCounts, error) {
	opt, cache, err := newOptimizer(env.models, engine, tr)
	if err != nil {
		return nil, err
	}
	rec := feedback.NewRecalibrator(feedback.NewStore(0, nil), feedback.NewDetector(feedback.DriftConfig{}), env.models)
	rec.Cache = cache
	rc := &replayCounts{arrivals: int64(len(arrivals)), failedByQuery: map[string]int64{}}
	rec.OnSwap(func(r feedback.Recalibration, info *feedback.ModelInfo) {
		_ = opt.SetModels(traceModels(info.Models, tr))
		rc.recalNs += r.Duration.Nanoseconds()
	})
	a, err := arbiter.New(arbiter.Config{
		Capacity: arbiterCapacity, Base: cluster.Default(), Engine: engine, Pricing: cost.DefaultPricing(),
		Optimizer: opt, Queries: env.queries, Tenants: admitTenants,
		Feedback: &feedback.Observer{Recal: rec}, RecalEvery: recalEvery,
	})
	if err != nil {
		return nil, err
	}
	var c0 counters
	if tr != nil {
		c0 = tr.snapshot()
	}
	start := time.Now()
	outs, err := a.Run(arrivals)
	rc.runNs = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.record("arbiter", 0, start)
		rc.fine = tr.snapshot().sub(c0)
	}
	st := a.Stats()
	if st.Queued != 0 || st.InFlight != 0 {
		return nil, checkf("arbiter ended with %d queued and %d in flight", st.Queued, st.InFlight)
	}
	if int64(len(outs))+st.Failed+st.Rejected != int64(len(arrivals)) {
		return nil, checkf("arbiter: %d completed + %d failed + %d rejected != %d submitted",
			len(outs), st.Failed, st.Rejected, len(arrivals))
	}
	rc.failed = st.Failed + st.Rejected
	for _, arr := range arrivals {
		rc.failedByQuery[arr.Query]++
	}
	queue := make([]float64, 0, len(outs))
	gangs := make([]gang, 0, len(outs))
	for _, o := range outs {
		if err := checkTimes("arbiter "+o.Query, o.Arrival, o.Start, o.Finish); err != nil {
			return nil, err
		}
		if math.Abs(o.QueueSeconds-(o.Start-o.Arrival)) > 1e-6 {
			return nil, checkf("arbiter %s: queue %.6f s, start-arrival %.6f s", o.Query, o.QueueSeconds, o.Start-o.Arrival)
		}
		rc.failedByQuery[o.Query]--
		queue = append(queue, o.QueueSeconds)
		gangs = append(gangs, gang{pool: "arbiter", start: o.Start, finish: o.Finish, containers: o.Containers})
	}
	if err := checkOccupancy(gangs, map[string]int{"arbiter": arbiterCapacity}); err != nil {
		return nil, err
	}
	rc.queueP95 = percentile(queue, 95)
	rc.recals = st.Recals
	rc.replanned = st.Replanned
	rc.observations = rec.Store().Total()
	rc.reopt = core.IncrementalStats{Full: st.ReoptFull, Exact: st.ReoptExact, Patched: st.ReoptPatched}
	rc.memoHits, rc.memoMis = opt.Memo().Hits(), opt.Memo().Misses()
	cs := cache.Stats()
	rc.cacheHits, rc.cacheM = cs.Hits, cs.Misses
	return rc, nil
}

// replayCloud replays the cloud trace through a fresh cloud arbiter,
// drains it and checks the outcomes.
func replayCloud(env *admitEnv, tr *tracer) (*replayCounts, error) {
	engine := execsim.Hive()
	opt, cache, err := newOptimizer(env.models, engine, tr)
	if err != nil {
		return nil, err
	}
	market := cloudMarket()
	a, err := cloud.New(cloud.Config{
		Market: market, Base: cluster.Default(), Engine: engine, Pricing: cost.DefaultPricing(),
		Optimizer: opt, Queries: env.queries, Tenants: cloudTenants(), Faults: env.cloudFaults,
		Autoscaler: cloud.AutoscalerConfig{Enabled: true, Step: 12, HighUtilization: 0.7},
	})
	if err != nil {
		return nil, err
	}
	var c0 counters
	if tr != nil {
		c0 = tr.snapshot()
	}
	start := time.Now()
	if _, err := a.Run(env.cloudTrace); err != nil {
		return nil, err
	}
	if err := a.Drain(); err != nil {
		return nil, err
	}
	rc := &replayCounts{arrivals: int64(len(env.cloudTrace)), failedByQuery: map[string]int64{},
		runNs: time.Since(start).Nanoseconds()}
	if tr != nil {
		tr.record("cloud", 0, start)
		rc.fine = tr.snapshot().sub(c0)
	}
	outs := a.Completed()
	st := a.Stats()
	if st.Lost != 0 {
		return nil, checkf("cloud lost %d queries", st.Lost)
	}
	if st.Queued != 0 || st.InFlight != 0 || int64(len(outs))+st.Rejected != st.Submitted ||
		st.Submitted != int64(len(env.cloudTrace)) {
		return nil, checkf("cloud: %d completed + %d rejected of %d submitted (%d arrivals), %d queued, %d in flight",
			len(outs), st.Rejected, st.Submitted, len(env.cloudTrace), st.Queued, st.InFlight)
	}
	capacity := map[string]int{}
	for _, c := range market.Classes {
		capacity[c.Name] = max(c.Count, c.MaxCount)
	}
	for _, arr := range env.cloudTrace {
		rc.failedByQuery[arr.Query]++
	}
	queue := make([]float64, 0, len(outs))
	gangs := make([]gang, 0, len(outs))
	bills := 0.0
	for _, o := range outs {
		if err := checkTimes("cloud "+o.Query, o.Arrival, o.Start, o.Finish); err != nil {
			return nil, err
		}
		rc.failedByQuery[o.Query]--
		queue = append(queue, o.QueueSeconds)
		gangs = append(gangs, gang{pool: o.Class, start: o.Start, finish: o.Finish, containers: o.Containers})
		bills += float64(o.BillUSD)
	}
	if err := checkOccupancy(gangs, capacity); err != nil {
		return nil, err
	}
	if spend := float64(st.SpendUSD); spend < bills && !agree(spend, bills) {
		return nil, checkf("cloud pool spend $%.6f below the outcomes' bills $%.6f", spend, bills)
	}
	rc.failed = st.Rejected
	rc.queueP95 = percentile(queue, 95)
	if len(outs) > 0 {
		rc.usdPerQuery = float64(st.SpendUSD) / float64(len(outs))
	}
	rc.preemptions = st.Preemptions
	rc.scaleEvents = int64(len(a.ScaleEvents()))
	rc.recoveries = st.RecoveredReopt + st.RecoveredOnDem + st.RecoveredDegrade
	rc.memoHits, rc.memoMis = opt.Memo().Hits(), opt.Memo().Misses()
	cs := cache.Stats()
	rc.cacheHits, rc.cacheM = cs.Hits, cs.Misses
	return rc, nil
}

func cloudTenants() []cloud.TenantConfig {
	out := make([]cloud.TenantConfig, len(admitTenants))
	for i, t := range admitTenants {
		out[i] = cloud.TenantConfig{Name: t.Name, Weight: t.Weight}
	}
	return out
}

// admitRound is one round's four replays, keyed by engine name.
type admitRound map[string]*replayCounts

var admitEngines = []string{"arbiter", "fault-a", "fault-b", "cloud"}

func playRound(env *admitEnv, tr *tracer) (admitRound, error) {
	r := admitRound{}
	var err error
	if r["arbiter"], err = replayArbiter(env, env.main, execsim.Hive(), 0, tr); err != nil {
		return nil, fmt.Errorf("arbiter replay: %w", err)
	}
	if r["fault-a"], err = replayArbiter(env, env.fault, execsim.Spark(), 0, tr); err != nil {
		return nil, fmt.Errorf("fault-a replay: %w", err)
	}
	if r["fault-b"], err = replayArbiter(env, env.fault, execsim.Hive(), faultRecalEvery, tr); err != nil {
		return nil, fmt.Errorf("fault-b replay: %w", err)
	}
	if r["cloud"], err = replayCloud(env, tr); err != nil {
		return nil, fmt.Errorf("cloud replay: %w", err)
	}
	return r, nil
}

// signature summarizes a round's virtual-time results; every round of a
// run replays identical inputs on fresh state and must reproduce it.
func (r admitRound) signature() string {
	s := ""
	for _, e := range admitEngines {
		c := r[e]
		s += fmt.Sprintf("%s:%d/%d/%.9g/%.9g/%d/%d;", e, c.arrivals, c.failed, c.queueP95, c.usdPerQuery, c.recals, c.preemptions)
	}
	return s
}

// admitStats accumulates a phase of rounds. Each round is a window; an
// arrival's latency is the wall time per arrival of its replay (the
// engine's Run, and Drain for the cloud), so a round holds one latency
// sample per engine, standing for that replay's arrivals.
type admitStats struct {
	rounds   []admitRound
	windows  []window
	arrivals int64
	failed   int64
}

// playRounds plays whole rounds until d has passed (at least one).
func playRounds(env *admitEnv, d time.Duration, tr *tracer) (*admitStats, error) {
	st := &admitStats{}
	start := time.Now()
	for len(st.rounds) == 0 || time.Since(start) < d {
		t0 := time.Now()
		r, err := playRound(env, tr)
		if err != nil {
			return nil, err
		}
		w := window{wall: time.Since(t0)}
		if len(st.rounds) > 0 && r.signature() != st.rounds[0].signature() {
			return nil, checkf("round %d differs from round 1 on identical inputs:\n%s\n%s",
				len(st.rounds)+1, r.signature(), st.rounds[0].signature())
		}
		for _, e := range admitEngines {
			c := r[e]
			w.ops += c.arrivals
			w.lat = append(w.lat, float64(c.runNs)/1e3/float64(c.arrivals))
			w.weight = append(w.weight, float64(c.arrivals))
			st.failed += c.failed
		}
		w.rssMB = residentMB()
		st.rounds = append(st.rounds, r)
		st.windows = append(st.windows, w)
		st.arrivals += w.ops
	}
	return st, nil
}

// failureNotes reports attempted and failed arrivals per engine and query
// for one round.
func failureNotes(r admitRound) []string {
	var lines []string
	for _, e := range admitEngines {
		c := r[e]
		lines = append(lines, fmt.Sprintf("admit-replay round engine=%s attempted=%d failed=%d", e, c.arrivals, c.failed))
		lines = append(lines, formatNotes("admit-replay round engine="+e+" failed", c.failedByQuery)...)
	}
	return lines
}

func runAdmit(o options) (*outcome, error) {
	// Set-up builds the models, queries and traces, then plays one checked
	// warm-up round.
	setup := &setupTimer[*admitEnv]{n: admitSetups, build: func() (*admitEnv, error) {
		env, err := newAdmitEnv(o.seed)
		if err != nil {
			return nil, err
		}
		if _, err := playRound(env, nil); err != nil {
			return nil, err
		}
		return env, nil
	}}
	env, err := setup.before()
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		return traceAdmit(o, env, d)
	}
	st, err := playRounds(env, d, nil)
	if err != nil {
		return nil, err
	}
	notes := append([]string{fmt.Sprintf("admit-replay: %d rounds, %d arrivals, %d failed",
		len(st.rounds), st.arrivals, st.failed)}, failureNotes(st.rounds[0])...)
	m := windowMetrics(st.windows)
	if m["setup_s"], err = setup.after(); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: st.arrivals,
		failed:    st.failed,
		metrics:   m,
		notes:     notes,
	}, nil
}

// merge adds another phase's rounds to st.
func (st *admitStats) merge(o *admitStats) {
	st.rounds = append(st.rounds, o.rounds...)
	st.windows = append(st.windows, o.windows...)
	st.arrivals += o.arrivals
	st.failed += o.failed
}

// traceAdmit alternates untraced and traced rounds until d has passed, so
// a shared machine's drift falls on both alike. Arbiter metrics are per
// arrival of the three arbiter replays, cloud metrics per cloud arrival,
// the rest per arrival.
func traceAdmit(o options, env *admitEnv, d time.Duration) (*outcome, error) {
	tr := newTracer()
	untraced, traced := &admitStats{}, &admitStats{}
	for start := time.Now(); time.Since(start) < d; {
		u, err := playRounds(env, 0, nil)
		if err != nil {
			return nil, err
		}
		untraced.merge(u)
		t, err := playRounds(env, 0, tr)
		if err != nil {
			return nil, err
		}
		traced.merge(t)
		if sig := untraced.rounds[0].signature(); u.rounds[0].signature() != sig || t.rounds[0].signature() != sig {
			return nil, checkf("a traced or untraced round differs from the first on identical inputs")
		}
	}
	var arb, cld replayCounts
	var memoH, memoM, cacheH, cacheM int64
	for _, r := range traced.rounds {
		for _, e := range admitEngines {
			c := r[e]
			memoH += c.memoHits
			memoM += c.memoMis
			cacheH += c.cacheHits
			cacheM += c.cacheM
			t := &arb
			if e == "cloud" {
				t = &cld
			}
			t.arrivals += c.arrivals
			t.runNs += c.runNs
			t.fine = t.fine.add(c.fine)
			t.recalNs += c.recalNs
			t.recals += c.recals
			t.replanned += c.replanned
			t.observations += c.observations
			t.reopt.Full += c.reopt.Full
			t.reopt.Exact += c.reopt.Exact
			t.reopt.Patched += c.reopt.Patched
			t.preemptions += c.preemptions
			t.scaleEvents += c.scaleEvents
			t.recoveries += c.recoveries
		}
	}
	fine := tr.snapshot()
	evalNs := tr.evalNs()
	n := traced.arrivals
	first := traced.rounds[0]
	m := map[string]float64{
		"core.memo_lookups":        perOp(float64(memoH+memoM), n),
		"core.memo_hit_ratio":      ratio(memoH, memoH+memoM),
		"core.reopt_full":          perOp(float64(arb.reopt.Full), arb.arrivals),
		"core.reopt_exact":         perOp(float64(arb.reopt.Exact), arb.arrivals),
		"core.reopt_patched":       perOp(float64(arb.reopt.Patched), arb.arrivals),
		"resource.cache_lookups":   perOp(float64(cacheH+cacheM), n),
		"resource.cache_hit_ratio": ratio(cacheH, cacheH+cacheM),
		"arbiter.run_us":           usPerOp(arb.runNs, arb.arrivals),
		"arbiter.self_us":          usPerOp(arb.runNs-arb.fine.childNs(evalNs)-arb.recalNs, arb.arrivals),
		"arbiter.replanned":        perOp(float64(arb.replanned), arb.arrivals),
		"arbiter.queue_p95_s":      first["arbiter"].queueP95,
		"cloud.run_us":             usPerOp(cld.runNs, cld.arrivals),
		"cloud.self_us":            usPerOp(cld.runNs-cld.fine.childNs(evalNs), cld.arrivals),
		"cloud.preemptions":        perOp(float64(cld.preemptions), cld.arrivals),
		"cloud.scale_events":       perOp(float64(cld.scaleEvents), cld.arrivals),
		"cloud.recoveries":         perOp(float64(cld.recoveries), cld.arrivals),
		"cloud.queue_p95_s":        first["cloud"].queueP95,
		"cloud.usd_per_query":      first["cloud"].usdPerQuery,
		"feedback.observations":    perOp(float64(arb.observations), arb.arrivals),
		"feedback.recals":          perOp(float64(arb.recals), arb.arrivals),
		"feedback.recal_us":        usPerOp(arb.recalNs, arb.arrivals),
		"trace.overhead_pct":       (meanLatency(traced.windows)/meanLatency(untraced.windows) - 1) * 100,
	}
	addFineMetrics(m, fine, evalNs, n)
	if err := tr.write(".bench_build/spans", fmt.Sprintf("admit-replay-%d.jsonl", o.seed)); err != nil {
		return nil, err
	}
	notes := append([]string{fmt.Sprintf("admit-replay traced: %d untraced and %d traced rounds",
		len(untraced.rounds), len(traced.rounds))}, failureNotes(first)...)
	return &outcome{
		attempted: untraced.arrivals + traced.arrivals,
		failed:    untraced.failed + traced.failed,
		metrics:   m,
		notes:     notes,
	}, nil
}
