package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"raqo/internal/catalog"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/server"
	"raqo/internal/workload"
)

// serveOnce answers one request on a fresh server.
func serveOnce(t *testing.T, r serveRequest) []byte {
	t.Helper()
	srv, err := server.New(server.Config{RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	if _, err := post(srv, rec, "/v1/optimize", body); err != nil {
		t.Fatal(err)
	}
	if rec.code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.code, rec.body.Bytes())
	}
	return rec.body.Bytes()
}

// edit decodes a response, applies fn to its generic form and re-encodes.
func edit(t *testing.T, body []byte, fn func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	fn(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mustReject requires a failed check whose message contains want.
func mustReject(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corrupted answer accepted, want a check mentioning %q", want)
	}
	if !errors.Is(err, errCheck) || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want a check mentioning %q", err, want)
	}
}

func TestServedCheckAcceptsServerAnswers(t *testing.T) {
	s := catalog.TPCH(100)
	for _, r := range []serveRequest{
		{Query: "All", Mode: "joint"},
		{Query: "Q3", Mode: "budget", Containers: 8, ContainerGB: 4},
		{Relations: []string{catalog.Lineitem, catalog.Orders, catalog.PartSupp}, Mode: "price", BudgetDollars: 0.5},
		{Query: "Q2", Mode: "fixed", Containers: 25, ContainerGB: 5},
	} {
		if _, err := checkServed(s, r, serveOnce(t, r)); err != nil {
			t.Errorf("%s: %v", r.label(), err)
		}
	}
}

func TestServedCheckRejectsCostOffByOneMillionth(t *testing.T) {
	s := catalog.TPCH(100)
	r := serveRequest{Relations: []string{catalog.Customer, catalog.Lineitem, catalog.Orders}, Mode: "fixed",
		Containers: 50, ContainerGB: 8}
	body := serveOnce(t, r)
	for _, field := range []string{"timeSeconds", "moneyDollars"} {
		bad := edit(t, body, func(m map[string]any) { m[field] = m[field].(float64) * (1 + 1e-6) })
		_, err := checkServed(s, r, bad)
		mustReject(t, err, "published models give")
	}
}

func TestServedCheckRejectsDroppedRelation(t *testing.T) {
	s := catalog.TPCH(100)
	r := serveRequest{Query: "Q3", Mode: "joint"}
	body := serveOnce(t, r)
	// The plan of Q12 is Q3's without the customer scan.
	short := serveOnce(t, serveRequest{Query: "Q12", Mode: "joint"})
	bad := edit(t, body, func(m map[string]any) {
		var q12 map[string]any
		if err := json.Unmarshal(short, &q12); err != nil {
			t.Fatal(err)
		}
		m["plan"] = q12["plan"]
	})
	_, err := checkServed(s, r, bad)
	mustReject(t, err, "plan covers")
}

func TestServedCheckRejectsResourcesOutsideQuota(t *testing.T) {
	s := catalog.TPCH(100)
	r := serveRequest{Query: "Q3", Mode: "budget", Containers: 8, ContainerGB: 4}
	body := serveOnce(t, r)
	for _, tc := range []struct {
		key   string
		value float64
	}{{"containers", 9}, {"containerGB", 5}} {
		bad := edit(t, body, func(m map[string]any) {
			res := m["plan"].(map[string]any)["resources"].(map[string]any)
			res[tc.key] = tc.value
		})
		_, err := checkServed(s, r, bad)
		mustReject(t, err, "outside")
	}
}

func TestServedCheckRejectsPriceOverBudget(t *testing.T) {
	s := catalog.TPCH(100)
	r := serveRequest{Query: "Q12", Mode: "price", BudgetDollars: 0.05}
	body := serveOnce(t, r)
	var resp served
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	r.BudgetDollars = resp.MoneyDollars / 2
	_, err := checkServed(s, r, body)
	mustReject(t, err, "budget")
}

// refusedEnv is a warm server environment that refused request r.
func refusedEnv(t *testing.T, r serveRequest) *serveEnv {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return &serveEnv{reqs: []serveRequest{r}, bodies: [][]byte{body}, refused: []bool{true}}
}

// TestRefusalCheck counts a refusal as a failed operation only when a
// fresh server answers the same request within its budget.
func TestRefusalCheck(t *testing.T) {
	s := catalog.TPCH(100)
	within := serveRequest{Relations: []string{catalog.Customer, catalog.Lineitem, catalog.Nation,
		catalog.Part, catalog.Supplier}, Mode: "price", BudgetDollars: 0.05}
	if err := refusedEnv(t, within).checkRefusals(s); err != nil {
		t.Fatalf("refusal of a request a fresh server answers within budget: %v", err)
	}
	beyond := serveRequest{Query: "Q12", Mode: "price", BudgetDollars: 1e-9}
	mustReject(t, refusedEnv(t, beyond).checkRefusals(s), "refused")
}

// scalePlan plans one random query the way plan-scale does.
func scalePlan(t *testing.T, k, maxC int, maxGB float64) (*plan.Node, grid) {
	t.Helper()
	s, err := catalog.Random(rand.New(rand.NewSource(scaleSchemaSeed)), 100, catalog.DefaultRandomConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := workload.RandomQuery(rand.New(rand.NewSource(5)), s, k)
	if err != nil {
		t.Fatal(err)
	}
	cond, g := scaleConditions(maxC, maxGB)
	opt, err := core.New(cond, core.Options{Planner: core.FastRandomized, Seed: 5, Randomized: scaleRandomized,
		Models: cost.PaperModelsUnfloored(), Resource: &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.Exact}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRelations(d.Plan, q.Rels); err != nil {
		t.Fatal(err)
	}
	return d.Plan, g
}

func TestLocalOptimumAcceptsHillClimbAnswers(t *testing.T) {
	for _, maxC := range []int{100, 1000} {
		root, g := scalePlan(t, 12, maxC, 10)
		if err := checkLocalOptimum(root, g); err != nil {
			t.Errorf("%d containers: %v", maxC, err)
		}
	}
}

func TestLocalOptimumRejectsJoinMovedOneStep(t *testing.T) {
	root, g := scalePlan(t, 12, 100, 10)
	moved := 0
	for _, j := range root.Joins() {
		orig := j.Res
		for _, step := range []plan.Resources{
			{Containers: orig.Containers - g.stepC, ContainerGB: orig.ContainerGB},
			{Containers: orig.Containers + g.stepC, ContainerGB: orig.ContainerGB},
			{Containers: orig.Containers, ContainerGB: orig.ContainerGB - g.stepGB},
			{Containers: orig.Containers, ContainerGB: orig.ContainerGB + g.stepGB},
		} {
			if !g.contains(step) {
				continue
			}
			here, _ := paperCost(j.Algo, j.SmallerInputGB(), orig.ContainerGB, float64(orig.Containers), false)
			there, _ := paperCost(j.Algo, j.SmallerInputGB(), step.ContainerGB, float64(step.Containers), false)
			if there <= here {
				continue // a tie or a better point would not be a corruption
			}
			j.Res = step
			mustReject(t, checkLocalOptimum(root, g), "not a local optimum")
			j.Res = orig
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no join could be moved to a worse neighbouring grid point")
	}
}

func TestLocalOptimumRejectsOffGridResources(t *testing.T) {
	root, g := scalePlan(t, 12, 100, 10)
	j := root.Joins()[0]
	j.Res = plan.Resources{Containers: g.maxC + 1, ContainerGB: 1}
	mustReject(t, checkLocalOptimum(root, g), "outside")
}

func TestOccupancyRejectsOverlappingGangsAboveCapacity(t *testing.T) {
	capacity := map[string]int{"od": 100, "spot": 10}
	ok := []gang{
		{pool: "od", start: 0, finish: 10, containers: 60},
		{pool: "od", start: 10, finish: 20, containers: 50}, // starts as the first ends
		{pool: "spot", start: 0, finish: 20, containers: 10},
	}
	if err := checkOccupancy(ok, capacity); err != nil {
		t.Fatalf("back-to-back gangs rejected: %v", err)
	}
	bad := append(ok, gang{pool: "od", start: 5, finish: 12, containers: 41})
	mustReject(t, checkOccupancy(bad, capacity), "holds")
	mustReject(t, checkOccupancy([]gang{{pool: "spot", start: 1, finish: 2, containers: 11}}, capacity), "holds")
}

func TestTimesRejectStartBeforeArrival(t *testing.T) {
	if err := checkTimes("q", 1, 1, 2); err != nil {
		t.Fatal(err)
	}
	mustReject(t, checkTimes("q", 2, 1, 3), "out of order")
	mustReject(t, checkTimes("q", 1, 3, 2), "out of order")
}

func TestSameAnswerIgnoresOnlyElapsed(t *testing.T) {
	a := []byte("{\n  \"timeSeconds\": 0.7,\n  \"elapsedMicros\": 313,\n  \"plan\": {}\n}")
	b := []byte("{\n  \"timeSeconds\": 0.7,\n  \"elapsedMicros\": 9,\n  \"plan\": {}\n}")
	c := []byte("{\n  \"timeSeconds\": 0.8,\n  \"elapsedMicros\": 313,\n  \"plan\": {}\n}")
	if !sameAnswer(a, b) {
		t.Error("answers differing only in elapsedMicros compare unequal")
	}
	if sameAnswer(a, c) {
		t.Error("answers differing in timeSeconds compare equal")
	}
}

// TestTracedServeLoadConcurrentCallers drives the traced server and the
// core replay from two callers at once; run it with -race.
func TestTracedServeLoadConcurrentCallers(t *testing.T) {
	s := catalog.TPCH(100)
	tr := newTracer()
	env, err := newServeEnv(s, serveRequests(s), tr)
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, callers: 2}
	load, err := httpLoad(env, o, 200*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := newCoreReplay(s, env)
	if err != nil {
		t.Fatal(err)
	}
	core, err := replay.run(o, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := tr.spanTotals("serve"); load.ops == 0 || int64(n) != load.ops || core.ops == 0 {
		t.Fatalf("%d requests, %d serve spans, %d core replays", load.ops, n, core.ops)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestWeightedLatencyPercentile(t *testing.T) {
	// An admit-replay round: replays of 2000, 1000, 1000 and 2000 arrivals.
	w := window{lat: []float64{43, 5, 28, 6}, weight: []float64{2000, 2000, 1000, 1000}}
	if p50, p90 := w.latencyPercentile(50), w.latencyPercentile(90); p50 != 6 || p90 != 43 {
		t.Fatalf("p50, p90 = %v, %v; want 6, 43", p50, p90)
	}
	if sum, n := w.latencySum(); n != 6000 || sum != 43*2000+5*2000+28*1000+6*1000 {
		t.Fatalf("mean latency sum %v over %v", sum, n)
	}
	u := window{lat: []float64{3, 1, 2}}
	if p := u.latencyPercentile(50); p != 2 {
		t.Fatalf("unweighted p50 = %v; want 2", p)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not run by the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
