package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"raqo/internal/catalog"
	"raqo/internal/plan"
)

// The checks below recompute what the program answers from first
// principles written out here, never from internal/cost or a stored copy of
// earlier output. The data sizes of a plan's operators come from the
// decoded plan (plan.Decode re-derives them from the schema); everything
// priced on top of them is recomputed.

// The paper's published regression coefficients (Section VI-A) over the
// feature vector [ss, ss², cs, cs², nc, nc², cs·nc], with no intercept.
var (
	paperSMJCoef = [7]float64{
		1.62643613e+01, 9.68774888e-01,
		1.33866542e-02, 1.60639851e-01,
		-7.82618920e-03, -3.91309460e-01,
		1.10387975e-01,
	}
	paperBHJCoef = [7]float64{
		1.00739509e+04, -6.72184592e+02,
		-1.37392901e+01, -1.64871481e+02,
		2.44721676e-02, 1.22360838e+00,
		-1.37319484e+02,
	}
)

const (
	// servedFloor is the prediction floor of the served (floored) models:
	// a regression extrapolated below it is clamped to it.
	servedFloor = 0.1
	// dollarsPerGBSecond is the default serverless price the server
	// bills joins at.
	dollarsPerGBSecond = 1e-5
	// relTol is the agreement required between a recomputed and an
	// answered cost.
	relTol = 1e-9
)

// paperCost evaluates the published model of algo at (ss, cs, nc); with
// floored set the prediction is clamped at servedFloor.
func paperCost(algo plan.JoinAlgo, ss, cs, nc float64, floored bool) (float64, error) {
	var coef [7]float64
	switch algo {
	case plan.SMJ:
		coef = paperSMJCoef
	case plan.BHJ:
		coef = paperBHJCoef
	default:
		return 0, fmt.Errorf("no published model for %v", algo)
	}
	x := [7]float64{ss, ss * ss, cs, cs * cs, nc, nc * nc, cs * nc}
	y := 0.0
	for i := range x {
		y += coef[i] * x[i]
	}
	if floored && y < servedFloor {
		y = servedFloor
	}
	return y, nil
}

// agree reports whether a and b agree to relTol relative.
func agree(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// grid is a resource space the benchmark checks answers against: container
// counts min, min+step, ..., max and container sizes minGB, minGB+gbStep,
// ..., maxGB.
type grid struct {
	minC, maxC, stepC int
	minGB, maxGB      float64
	stepGB            float64
}

// contains reports whether r is a point of the grid.
func (g grid) contains(r plan.Resources) bool {
	if r.Containers < g.minC || r.Containers > g.maxC || (r.Containers-g.minC)%g.stepC != 0 {
		return false
	}
	if r.ContainerGB < g.minGB-1e-9 || r.ContainerGB > g.maxGB+1e-9 {
		return false
	}
	k := (r.ContainerGB - g.minGB) / g.stepGB
	return math.Abs(k-math.Round(k)) < 1e-9
}

// checkRelations requires the plan's scans to be exactly the wanted
// relations, each once.
func checkRelations(root *plan.Node, want []string) error {
	got := append([]string(nil), root.Relations()...)
	w := append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(w)
	if strings.Join(got, ",") != strings.Join(w, ",") {
		return checkf("plan covers %v, request was %v", got, w)
	}
	return nil
}

// served is the part of a /v1/optimize response the checks read.
type served struct {
	TimeSeconds  float64         `json:"timeSeconds"`
	MoneyDollars float64         `json:"moneyDollars"`
	Plan         json.RawMessage `json:"plan"`
}

// checkServed verifies one response of the served TPC-H schema against
// the request that produced it: the plan decodes and covers exactly the
// requested relations, every join's resources lie on the allowed grid (the
// quota in budget mode, the fixed point in fixed mode), the answered time
// and money agree with the published models to relTol, and in price mode
// the money is within budget. It returns the decoded response.
func checkServed(s *catalog.Schema, req serveRequest, body []byte) (*served, error) {
	var resp served
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, checkf("%s: undecodable response: %v", req.label(), err)
	}
	root, err := plan.Decode(s, resp.Plan)
	if err != nil {
		return nil, checkf("%s: plan does not round-trip: %v", req.label(), err)
	}
	if err := checkRelations(root, req.relations()); err != nil {
		return nil, fmt.Errorf("%s: %w", req.label(), err)
	}
	g := servedGrid
	switch req.Mode {
	case "budget":
		g.maxC, g.maxGB = req.Containers, req.ContainerGB
	case "fixed":
		g.minC, g.maxC, g.minGB, g.maxGB = req.Containers, req.Containers, req.ContainerGB, req.ContainerGB
	}
	var secs, money float64
	for _, j := range root.Joins() {
		if !g.contains(j.Res) {
			return nil, checkf("%s: join over %v at %v outside %+v", req.label(), j.Relations(), j.Res, g)
		}
		c, err := paperCost(j.Algo, j.SmallerInputGB(), j.Res.ContainerGB, float64(j.Res.Containers), true)
		if err != nil {
			return nil, checkf("%s: %v", req.label(), err)
		}
		secs += c
		money += dollarsPerGBSecond * j.Res.ContainerGB * float64(j.Res.Containers) * c
	}
	if !agree(secs, resp.TimeSeconds) {
		return nil, checkf("%s: answered %.12g s, published models give %.12g s", req.label(), resp.TimeSeconds, secs)
	}
	if !agree(money, resp.MoneyDollars) {
		return nil, checkf("%s: answered $%.12g, published models give $%.12g", req.label(), resp.MoneyDollars, money)
	}
	if req.Mode == "price" && resp.MoneyDollars > req.BudgetDollars {
		return nil, checkf("%s: $%.6g over the $%.6g budget", req.label(), resp.MoneyDollars, req.BudgetDollars)
	}
	return &resp, nil
}

// checkLocalOptimum verifies Algorithm 1's defining property on every join
// of a plan planned under g with the unfloored published models: its
// resources lie on the grid and no single step along either axis lowers
// the model's cost (beyond relTol).
func checkLocalOptimum(root *plan.Node, g grid) error {
	for _, j := range root.Joins() {
		r := j.Res
		if !g.contains(r) {
			return checkf("join over %d relations at %v outside %+v", len(j.Relations()), r, g)
		}
		ss := j.SmallerInputGB()
		here, err := paperCost(j.Algo, ss, r.ContainerGB, float64(r.Containers), false)
		if err != nil {
			return checkf("%v", err)
		}
		neighbours := []plan.Resources{
			{Containers: r.Containers - g.stepC, ContainerGB: r.ContainerGB},
			{Containers: r.Containers + g.stepC, ContainerGB: r.ContainerGB},
			{Containers: r.Containers, ContainerGB: r.ContainerGB - g.stepGB},
			{Containers: r.Containers, ContainerGB: r.ContainerGB + g.stepGB},
		}
		for _, n := range neighbours {
			if !g.contains(n) {
				continue
			}
			c, _ := paperCost(j.Algo, ss, n.ContainerGB, float64(n.Containers), false)
			if c < here && !agree(c, here) {
				return checkf("%v join (ss %.4g GB) at %v is not a local optimum: %v costs %.10g < %.10g",
					j.Algo, ss, r, n, c, here)
			}
		}
	}
	return nil
}

// gang is one admitted allocation as an outcome reports it.
type gang struct {
	pool          string
	start, finish float64
	containers    int
}

// checkOccupancy sweeps the gangs' [start, finish) intervals in time order
// (releases before acquisitions at the same instant) and requires each
// pool's held containers to stay within its capacity.
func checkOccupancy(gangs []gang, capacity map[string]int) error {
	type event struct {
		at    float64
		delta int
		pool  string
	}
	events := make([]event, 0, 2*len(gangs))
	for _, g := range gangs {
		if _, ok := capacity[g.pool]; !ok {
			return checkf("gang on unknown pool %q", g.pool)
		}
		events = append(events, event{g.start, g.containers, g.pool}, event{g.finish, -g.containers, g.pool})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].delta < events[j].delta
	})
	held := map[string]int{}
	for _, e := range events {
		held[e.pool] += e.delta
		if held[e.pool] > capacity[e.pool] {
			return checkf("pool %s holds %d containers at t=%.3f, capacity %d", e.pool, held[e.pool], e.at, capacity[e.pool])
		}
	}
	return nil
}

// checkTimes requires arrival <= start <= finish.
func checkTimes(what string, arrival, start, finish float64) error {
	if !(arrival <= start && start <= finish) {
		return checkf("%s: arrival %.3f, start %.3f, finish %.3f out of order", what, arrival, start, finish)
	}
	return nil
}
