package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/server"
	"raqo/internal/units"
)

// serve-tpch: a closed loop of callers posting /v1/optimize to an
// in-process server.Server through ServeHTTP (no listener). The distinct
// requests are every target over the TPC-H SF100 schema (the paper's named
// queries and every connected subset of the eight tables) in every mode
// and mode parameter. No real serving mix is known, so every distinct
// request weighs the same: each caller plays whole rounds, a round being
// every distinct request once in an order drawn from the seed. Two
// single-caller passes over the distinct requests in a fixed order warm
// the server (the first, on a fresh server, also yields plan_cost_s);
// timing starts after them. The warm server's state therefore does not
// depend on the seed, and neither do the answers a round checks.

// serveSetups is how many times set-up is repeated to report its median.
const serveSetups = 11

// servedGrid is the served cluster, cluster.Default() written out: 1 to
// 100 containers of 1 to 10 GB, in steps of 1 on both axes.
var servedGrid = grid{minC: 1, maxC: 100, stepC: 1, minGB: 1, maxGB: 10, stepGB: 1}

// namedQueries are the relations of the paper's TPC-H queries.
var namedQueries = map[string][]string{
	"Q12": {catalog.Lineitem, catalog.Orders},
	"Q3":  {catalog.Customer, catalog.Orders, catalog.Lineitem},
	"Q2":  {catalog.Part, catalog.PartSupp, catalog.Supplier, catalog.Nation},
	"All": {catalog.Region, catalog.Nation, catalog.Supplier, catalog.Customer,
		catalog.Part, catalog.PartSupp, catalog.Orders, catalog.Lineitem},
}

// Mode parameters: tenant quotas (containers, GB), price budgets ($) and
// fixed configurations (containers, GB).
var (
	serveQuotas = []plan.Resources{{Containers: 8, ContainerGB: 4}, {Containers: 16, ContainerGB: 6},
		{Containers: 32, ContainerGB: 8}, {Containers: 64, ContainerGB: 10}}
	serveBudgets = []float64{0.05, 0.1, 0.5, 1}
	serveFixed   = []plan.Resources{{Containers: 10, ContainerGB: 2}, {Containers: 25, ContainerGB: 5},
		{Containers: 50, ContainerGB: 8}, {Containers: 100, ContainerGB: 10}}
)

// serveRequest is one /v1/optimize request body.
type serveRequest struct {
	Query         string   `json:"query,omitempty"`
	Relations     []string `json:"relations,omitempty"`
	Mode          string   `json:"mode"`
	Containers    int      `json:"containers,omitempty"`
	ContainerGB   float64  `json:"containerGB,omitempty"`
	BudgetDollars float64  `json:"budgetDollars,omitempty"`
}

// relations is the relation set the request asks to join.
func (r serveRequest) relations() []string {
	if r.Query != "" {
		return namedQueries[r.Query]
	}
	return r.Relations
}

// label identifies the request in messages and deduplication.
func (r serveRequest) label() string {
	target := r.Query
	if target == "" {
		target = strings.Join(r.Relations, "+")
	}
	return fmt.Sprintf("%s/%s/%d/%g/%g", target, r.Mode, r.Containers, r.ContainerGB, r.BudgetDollars)
}

// connectedSubsets lists every connected subset of at least two tables
// of s, in a fixed order.
func connectedSubsets(s *catalog.Schema) [][]string {
	tables := s.Tables()
	sort.Strings(tables)
	var out [][]string
	for mask := 1; mask < 1<<len(tables); mask++ {
		var sub []string
		for i, t := range tables {
			if mask&(1<<i) != 0 {
				sub = append(sub, t)
			}
		}
		if len(sub) >= 2 && s.Connected(sub) {
			out = append(out, sub)
		}
	}
	return out
}

// serveOrderSeed fixes the order of the distinct requests, which is the
// order of the warm-up passes. The warm server's answers depend on it:
// after about one warm-up order in five, among them this one, the server
// refuses the price requests for customer+lineitem+nation+part+supplier
// although a fresh server answers them within budget (a fault of the
// program, see CHANGES.md). Each refusal is a failed operation, the same
// ones in every round of every run.
const serveOrderSeed = 10

// serveRequests builds the distinct requests in their fixed order.
func serveRequests(s *catalog.Schema) []serveRequest {
	var targets []serveRequest
	for _, name := range []string{"Q12", "Q3", "Q2", "All"} {
		targets = append(targets, serveRequest{Query: name})
	}
	for _, sub := range connectedSubsets(s) {
		targets = append(targets, serveRequest{Relations: sub})
	}
	var reqs []serveRequest
	for _, t := range targets {
		r := t
		r.Mode = "joint"
		reqs = append(reqs, r)
		for _, q := range serveQuotas {
			r := t
			r.Mode, r.Containers, r.ContainerGB = "budget", q.Containers, q.ContainerGB
			reqs = append(reqs, r)
		}
		for _, b := range serveBudgets {
			r := t
			r.Mode, r.BudgetDollars = "price", b
			reqs = append(reqs, r)
		}
		for _, f := range serveFixed {
			r := t
			r.Mode, r.Containers, r.ContainerGB = "fixed", f.Containers, f.ContainerGB
			reqs = append(reqs, r)
		}
	}
	rand.New(rand.NewSource(serveOrderSeed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

// Header implements http.ResponseWriter.
func (r *recorder) Header() http.Header { return r.header }

// Write implements http.ResponseWriter.
func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

// WriteHeader implements http.ResponseWriter.
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

// post sends one request body through h and returns how long ServeHTTP
// took; the response is left in rec.
func post(h http.Handler, rec *recorder, path string, body []byte) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	rec.reset()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(start), nil
}

// sameAnswer compares two responses ignoring the elapsedMicros value, the
// one field that legitimately differs between identical answers.
func sameAnswer(ref, got []byte) bool {
	key := []byte(`"elapsedMicros":`)
	i, j := bytes.Index(ref, key), bytes.Index(got, key)
	if i < 0 || j < 0 || i != j || !bytes.Equal(ref[:i], got[:j]) {
		return bytes.Equal(ref, got)
	}
	skip := func(b []byte, k int) int {
		k += len(key)
		for k < len(b) && b[k] == ' ' {
			k++
		}
		for k < len(b) && b[k] >= '0' && b[k] <= '9' {
			k++
		}
		return k
	}
	return bytes.Equal(ref[skip(ref, i):], got[skip(got, j):])
}

// serveEnv is one warmed server with its reference answers. refused marks
// the price requests the warm server answers 422 "no plan within budget";
// each is a failed operation every time it is sent, once checkRefusals has
// shown that a plan within that budget exists.
type serveEnv struct {
	srv      *server.Server
	reqs     []serveRequest
	bodies   [][]byte
	refs     [][]byte
	refused  []bool
	planCost float64
}

// newServeEnv builds a server (traced when tr is set), then runs the two
// warm-up passes, checking every answer.
func newServeEnv(s *catalog.Schema, reqs []serveRequest, tr *tracer) (*serveEnv, error) {
	cfg := server.Config{RecalInterval: -1, HistoryInterval: -1}
	if tr != nil {
		cfg.Options = core.Options{
			Models: traceModels(cost.PaperModels(), tr),
			Resource: &resource.Cache{Inner: tracePlanner(&resource.HillClimb{}, tr),
				Mode: resource.NearestNeighbor, ThresholdGB: 1},
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{srv: srv, reqs: reqs, bodies: make([][]byte, len(reqs)),
		refs: make([][]byte, len(reqs)), refused: make([]bool, len(reqs))}
	for i, r := range reqs {
		if env.bodies[i], err = json.Marshal(r); err != nil {
			return nil, err
		}
	}
	rec := newRecorder()
	for pass := 0; pass < 2; pass++ {
		for i, r := range reqs {
			if _, err := post(srv, rec, "/v1/optimize", env.bodies[i]); err != nil {
				return nil, err
			}
			refused := rec.code == http.StatusUnprocessableEntity && r.Mode == "price"
			if !refused {
				if rec.code != http.StatusOK {
					return nil, checkf("%s: status %d: %s", r.label(), rec.code, rec.body.Bytes())
				}
				resp, err := checkServed(s, r, rec.body.Bytes())
				if err != nil {
					return nil, err
				}
				if pass == 0 {
					env.planCost += resp.TimeSeconds
				}
			}
			if pass == 1 {
				env.refs[i] = bytes.Clone(rec.body.Bytes())
				env.refused[i] = refused
			}
		}
	}
	return env, nil
}

// checkRefusals shows that every request the warm server refuses has a
// plan within its budget: a fresh server, asked that request alone, answers
// one that passes checkServed.
func (env *serveEnv) checkRefusals(s *catalog.Schema) error {
	for i, r := range env.reqs {
		if !env.refused[i] {
			continue
		}
		fresh, err := server.New(server.Config{RecalInterval: -1, HistoryInterval: -1})
		if err != nil {
			return err
		}
		rec := newRecorder()
		if _, err := post(fresh, rec, "/v1/optimize", env.bodies[i]); err != nil {
			return err
		}
		if rec.code != http.StatusOK {
			return checkf("%s: refused by the warm server and by a fresh one (status %d)", r.label(), rec.code)
		}
		if _, err := checkServed(s, r, rec.body.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// refusedCount is how many distinct requests the warm server refuses.
func (env *serveEnv) refusedCount() int {
	n := 0
	for _, r := range env.refused {
		if r {
			n++
		}
	}
	return n
}

// loadResult is the outcome of one closed-loop phase.
type loadResult struct {
	ops     int64
	failed  int64
	windows []window // serveWindow-long stretches by completion time
	bytes   int64
}

const (
	// serveWindow is the length of one measurement window of a closed
	// loop.
	serveWindow = time.Second
	// windowSamples bounds the latencies a caller keeps per window
	// (a uniform reservoir sample), so the benchmark's own memory does not
	// grow with throughput and blur the resident-set metric.
	windowSamples = 4096
)

// latencies merges the windows' latency samples.
func (r *loadResult) latencies() []float64 {
	var all []float64
	for _, w := range r.windows {
		all = append(all, w.lat...)
	}
	return all
}

// closedLoop runs callers until d has passed, each playing whole rounds:
// every one of n distinct requests once, in an order drawn from the seed
// and the caller. do serves request i for caller c and returns its latency,
// its response size and whether the program failed it. closedLoop returns
// when every caller has stopped.
func closedLoop(callers int, seed int64, d time.Duration, n int,
	do func(c, i int) (time.Duration, int, bool, error)) (*loadResult, error) {
	nw := int(d/serveWindow) + 1
	perCaller := make([][]window, callers)
	sizes := make([]int64, callers)
	fails := make([]int64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		perCaller[c] = make([]window, nw)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(seed*7919 + int64(c)))
			// The latency reservoir draws from a stream of its own, so the
			// request order depends on the seed and the caller alone.
			sample := rand.New(rand.NewSource(^(seed*7919 + int64(c))))
			ws := perCaller[c]
			last := 0
			for time.Since(start) < d {
				for _, i := range order.Perm(n) {
					lat, size, failed, err := do(c, i)
					if err != nil {
						errs[c] = err
						return
					}
					sizes[c] += int64(size)
					if failed {
						fails[c]++
					}
					wi := min(nw-1, int(time.Since(start)/serveWindow))
					if c == 0 && wi != last {
						// Caller 0 samples the resident set as each window closes.
						ws[last].rssMB = residentMB()
						last = wi
					}
					w := &ws[wi]
					w.ops++
					us := float64(lat.Nanoseconds()) / 1e3
					if len(w.lat) < windowSamples {
						w.lat = append(w.lat, us)
					} else if j := sample.Int63n(w.ops); j < windowSamples {
						w.lat[j] = us
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := &loadResult{windows: make([]window, 0, nw)}
	for i := 0; i < nw; i++ {
		// The last window is the partial one, stragglers included.
		w := window{wall: min(serveWindow, elapsed-time.Duration(i)*serveWindow), rssMB: perCaller[0][i].rssMB}
		for c := range perCaller {
			w.ops += perCaller[c][i].ops
			w.lat = append(w.lat, perCaller[c][i].lat...)
		}
		res.ops += w.ops
		if w.wall >= serveWindow/2 {
			res.windows = append(res.windows, w)
		}
	}
	for c := range errs {
		if errs[c] != nil {
			return nil, errs[c]
		}
		res.bytes += sizes[c]
		res.failed += fails[c]
	}
	return res, nil
}

// httpLoad drives env's server through ServeHTTP, checking every answer
// against its reference. With tr set each call is a "serve" span.
func httpLoad(env *serveEnv, o options, d time.Duration, tr *tracer) (*loadResult, error) {
	recs := make([]*recorder, o.callers)
	for c := range recs {
		recs[c] = newRecorder()
	}
	return closedLoop(o.callers, o.seed, d, len(env.reqs), func(c, i int) (time.Duration, int, bool, error) {
		rec := recs[c]
		lat, err := post(env.srv, rec, "/v1/optimize", env.bodies[i])
		if err != nil {
			return 0, 0, false, err
		}
		if tr != nil {
			tr.record("serve", c, time.Now().Add(-lat))
		}
		want := http.StatusOK
		if env.refused[i] {
			want = http.StatusUnprocessableEntity
		}
		if rec.code != want || !sameAnswer(env.refs[i], rec.body.Bytes()) {
			return 0, 0, false, checkf("%s: status %d, answer differs from the warm server's reference", env.reqs[i].label(), rec.code)
		}
		return lat, rec.body.Len(), env.refused[i], nil
	})
}

func runServe(o options) (*outcome, error) {
	s := catalog.TPCH(100)
	reqs := serveRequests(s)
	var planCost float64
	setup := &setupTimer[*serveEnv]{n: serveSetups, build: func() (*serveEnv, error) {
		env, err := newServeEnv(s, reqs, nil)
		if err != nil {
			return nil, err
		}
		// A fresh server answering the distinct set in its fixed order
		// must price it identically every time.
		if planCost != 0 && env.planCost != planCost {
			return nil, checkf("plan cost %.12g differs from an identical fresh server's %.12g", env.planCost, planCost)
		}
		planCost = env.planCost
		return env, nil
	}}
	env, err := setup.before()
	if err != nil {
		return nil, err
	}
	if err := env.checkRefusals(s); err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		return traceServe(o, s, env, d)
	}
	load, err := httpLoad(env, o, d, nil)
	if err != nil {
		return nil, err
	}
	m := windowMetrics(load.windows)
	if m["setup_s"], err = setup.after(); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: load.ops,
		failed:    load.failed,
		metrics:   m,
		notes: []string{fmt.Sprintf("serve-tpch: %d requests by %d callers in rounds of %d distinct (%d refused each round), p99 %.1f us, plan cost %.6f s",
			load.ops, o.callers, len(reqs), env.refusedCount(), percentile(load.latencies(), 99), planCost)},
	}, nil
}

// traceSlice is how long each phase of a traced serve-tpch run lasts
// before the next takes over; the phases alternate so that a shared
// machine's drift falls on all of them alike.
const traceSlice = 2 * time.Second

// merge adds another phase slice's results to r.
func (r *loadResult) merge(o *loadResult) {
	r.ops += o.ops
	r.failed += o.failed
	r.bytes += o.bytes
	r.windows = append(r.windows, o.windows...)
}

// traceServe measures the per-layer metrics from three phases run in
// alternating slices: untraced requests through ServeHTTP, traced requests
// through ServeHTTP, and a traced same-stream replay against a
// core.Optimizer configured as the server configures its own, which gives
// the core planning time the handler's latency contains.
func traceServe(o options, s *catalog.Schema, plain *serveEnv, d time.Duration) (*outcome, error) {
	tr := newTracer()
	env, err := newServeEnv(s, plain.reqs, tr)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(env.refused, plain.refused) {
		return nil, checkf("the traced server refuses other requests than the untraced one")
	}
	replay, err := newCoreReplay(s, env)
	if err != nil {
		return nil, err
	}
	memoHits0, memoMisses0, err := memoCounters(env.srv)
	if err != nil {
		return nil, err
	}
	cache0 := env.srv.Cache().Stats()
	c0 := tr.snapshot()
	untraced, traced, core := &loadResult{}, &loadResult{}, &loadResult{}
	for start := time.Now(); time.Since(start) < d; {
		u, err := httpLoad(plain, o, traceSlice, nil)
		if err != nil {
			return nil, err
		}
		untraced.merge(u)
		t, err := httpLoad(env, o, traceSlice, tr)
		if err != nil {
			return nil, err
		}
		traced.merge(t)
		c, err := replay.run(o, traceSlice)
		if err != nil {
			return nil, err
		}
		core.merge(c)
	}
	fine := tr.snapshot().sub(c0)
	cache := env.srv.Cache().Stats()
	memoHits, memoMisses, err := memoCounters(env.srv)
	if err != nil {
		return nil, err
	}
	_, serveNs := tr.spanTotals("serve")
	_, coreNs := replay.tr.spanTotals("core")
	optimizeUs := usPerOp(coreNs, core.ops)

	n := traced.ops
	cacheHits, cacheMisses := cache.Hits-cache0.Hits, cache.Misses-cache0.Misses
	memoH, memoM := memoHits-memoHits0, memoMisses-memoMisses0
	m := map[string]float64{
		"server.self_us":             usPerOp(serveNs, n) - optimizeUs,
		"server.response_bytes":      perOp(float64(traced.bytes), n),
		"core.optimize_us":           optimizeUs,
		"core.memo_lookups":          perOp(float64(memoH+memoM), n),
		"core.memo_hit_ratio":        ratio(memoH, memoH+memoM),
		"core.plan_cost_s":           plain.planCost,
		"optimizer.self_us":          usPerOp(coreNs-replay.tr.snapshot().sub(replay.base).childNs(replay.tr.evalNs()), core.ops),
		"optimizer.plans_considered": perOp(float64(replay.plans.Load()), core.ops),
		"resource.cache_lookups":     perOp(float64(cacheHits+cacheMisses), n),
		"resource.cache_hit_ratio":   ratio(cacheHits, cacheHits+cacheMisses),
		"trace.overhead_pct":         (mean(traced.latencies())/mean(untraced.latencies()) - 1) * 100,
	}
	addFineMetrics(m, fine, tr.evalNs(), n)
	if err := tr.write(".bench_build/spans", fmt.Sprintf("serve-tpch-%d.jsonl", o.seed)); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: untraced.ops + traced.ops + core.ops,
		failed:    untraced.failed + traced.failed + core.failed,
		metrics:   m,
		notes: []string{fmt.Sprintf("serve-tpch traced: %d untraced, %d traced requests, %d core replays",
			untraced.ops, traced.ops, core.ops)},
	}, nil
}

// memoCounters reads the operator-cost memo counters from GET /metrics.
func memoCounters(srv *server.Server) (hits, misses int64, err error) {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	rec := newRecorder()
	srv.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d", rec.code)
	}
	sc := bufio.NewScanner(&rec.body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "raqo_cost_memo_hits_total":
			hits, err = strconv.ParseInt(f[1], 10, 64)
		case "raqo_cost_memo_misses_total":
			misses, err = strconv.ParseInt(f[1], 10, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("GET /metrics: %v", err)
		}
	}
	return hits, misses, sc.Err()
}

// coreReplay replays the callers' request streams against a traced
// core.Optimizer configured as server.New configures its shared one (the
// paper models, a nearest-neighbour resource cache with a 1 GB threshold,
// the operator-cost memo, the default cluster), after the same two warm-up
// passes. It must refuse the requests the server refuses, and only those.
// Each call is a "core" span; only replayed calls are counted.
type coreReplay struct {
	reqs     []serveRequest
	refused  []bool
	tr       *tracer
	base     counters // tr's counters after the warm-up
	optimize func(i int) (*core.Decision, error)
	plans    atomic.Int64
}

func newCoreReplay(s *catalog.Schema, env *serveEnv) (*coreReplay, error) {
	reqs := env.reqs
	tr := newTracer()
	opt, err := core.New(cluster.Default(), core.Options{
		Models: traceModels(cost.PaperModels(), tr),
		Resource: &resource.Cache{Inner: tracePlanner(&resource.HillClimb{}, tr),
			Mode: resource.NearestNeighbor, ThresholdGB: 1},
		MemoizeCosts: true,
	})
	if err != nil {
		return nil, err
	}
	queries := make([]*plan.Query, len(reqs))
	for i, r := range reqs {
		if queries[i], err = plan.NewQuery(s, r.relations()...); err != nil {
			return nil, err
		}
	}
	cr := &coreReplay{reqs: reqs, refused: env.refused, tr: tr}
	cr.optimize = func(i int) (*core.Decision, error) {
		r, q := reqs[i], queries[i]
		switch r.Mode {
		case "budget":
			return opt.OptimizeForBudget(q, r.Containers, r.ContainerGB)
		case "price":
			return opt.OptimizeForPrice(q, units.USD(r.BudgetDollars))
		case "fixed":
			return opt.OptimizeFixed(q, plan.Resources{Containers: r.Containers, ContainerGB: r.ContainerGB})
		}
		return opt.Optimize(q)
	}
	for pass := 0; pass < 2; pass++ {
		for i := range reqs {
			_, err := cr.optimize(i)
			if pass == 1 && (err != nil) != cr.refused[i] {
				return nil, checkf("core replay warm-up %s: %v, the server refused it: %v", reqs[i].label(), err, cr.refused[i])
			}
		}
	}
	cr.base = tr.snapshot()
	return cr, nil
}

// run replays the callers' streams for d.
func (cr *coreReplay) run(o options, d time.Duration) (*loadResult, error) {
	return closedLoop(o.callers, o.seed, d, len(cr.reqs), func(c, i int) (time.Duration, int, bool, error) {
		start := time.Now()
		dec, err := cr.optimize(i)
		if (err != nil) != cr.refused[i] {
			return 0, 0, false, checkf("core replay %s: %v, the server refused it: %v", cr.reqs[i].label(), err, cr.refused[i])
		}
		cr.tr.record("core", c, start)
		if dec != nil {
			cr.plans.Add(int64(dec.PlansConsidered))
		}
		return time.Since(start), 0, err != nil, nil
	})
}

// mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
