// Command raqobench is the RAQO benchmark. It runs one named workload
// against the program's Go API in a single process, checks every output
// against computations made apart from the program, and prints as its last
// line one JSON object with the run's correctness, its attempted and failed
// operations, and its metrics:
//
//	go run . --workload serve-tpch --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones, measured by a
// traced pass next to an untraced one (their difference is the tracing
// overhead). --repeat N runs the workload N times, each in a fresh copy of
// this binary with seeds seed..seed+N-1, and prints the median and quartiles
// of every metric. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// A metricDef names one reported metric and its unit. The two lists are
// the benchmark's contract with BENCHMARK.json (checked by a test).
type metricDef struct {
	name, unit string
}

// endToEnd metrics are what a user of the system sees; every workload
// reports all of them, each for its own kind of operation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
}

// perLayer metrics are reported by the traced run. Counts and times are per
// operation of the workload ("1/op", "us/op"); a layer that does no work on
// a workload reports 0.
var perLayer = []metricDef{
	{"server.self_us", "us/op"},
	{"server.response_bytes", "B/op"},
	{"core.optimize_us", "us/op"},
	{"core.memo_lookups", "1/op"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.reopt_full", "1/op"},
	{"core.reopt_exact", "1/op"},
	{"core.reopt_patched", "1/op"},
	{"core.plan_cost_s", "s"},
	{"optimizer.self_us", "us/op"},
	{"optimizer.plans_considered", "1/op"},
	{"resource.calls", "1/op"},
	{"resource.evals", "1/op"},
	{"resource.busy_us", "us/op"},
	{"resource.cache_lookups", "1/op"},
	{"resource.cache_hit_ratio", "ratio"},
	{"cost.evals", "1/op"},
	{"cost.busy_us", "us/op"},
	{"arbiter.run_us", "us/op"},
	{"arbiter.self_us", "us/op"},
	{"arbiter.replanned", "1/op"},
	{"arbiter.queue_p95_s", "s"},
	{"cloud.run_us", "us/op"},
	{"cloud.self_us", "us/op"},
	{"cloud.preemptions", "1/op"},
	{"cloud.scale_events", "1/op"},
	{"cloud.recoveries", "1/op"},
	{"cloud.queue_p95_s", "s"},
	{"cloud.usd_per_query", "USD"},
	{"feedback.observations", "1/op"},
	{"feedback.recals", "1/op"},
	{"feedback.recal_us", "us/op"},
	{"trace.overhead_pct", "%"},
}

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds int
	trace   bool
	// callers bounds closed-loop concurrency; it never exceeds nproc.
	callers int
}

// outcome is what a workload hands back: its operation counts, the metric
// values, and human-readable lines printed ahead of the JSON result.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

// errCheck marks a failed correctness check: the run reports correct=false.
var errCheck = errors.New("check failed")

// checkf returns an errCheck-wrapped error.
func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(options) (*outcome, error){
	"serve-tpch":   runServe,
	"plan-scale":   runScale,
	"admit-replay": runAdmit,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raqobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-tpch, plan-scale or admit-replay")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 30, "measured seconds of the run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced pass")
	repeat := fs.Int("repeat", 0, "run the workload N times (seeds seed..seed+N-1) and summarize")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "raqobench: need --workload serve-tpch|plan-scale|admit-replay, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, *name, *seed, *seconds, *trace, stdout, stderr)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, callers: callers()}

	// An overrun exits non-zero instead of hanging the caller.
	deadline := runDeadline(*seconds)
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "raqobench: %s exceeded its %v deadline\n", *name, deadline)
		os.Exit(3)
	})
	defer timer.Stop()

	out, err := drive(o)
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintf(stderr, "raqobench: %s: %v\n", *name, err)
		return 1
	}
	correct := err == nil
	if !correct {
		fmt.Fprintf(stderr, "raqobench: %s: %v\n", *name, err)
		out = &outcome{attempted: 1, failed: 1, metrics: map[string]float64{}}
	}
	for _, line := range out.notes {
		fmt.Fprintln(stdout, line)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := printResult(stdout, correct, out, defs, !o.trace); err != nil {
		fmt.Fprintf(stderr, "raqobench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// runDeadline bounds one run: twice the measured time plus room for
// set-up and the traced pass, never beyond 170 s.
func runDeadline(seconds int) time.Duration {
	return min(time.Duration(60+4*seconds)*time.Second, 170*time.Second)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the one-line JSON result. With required set, every
// metric must have been measured (the end-to-end set); otherwise a metric
// the workload did not touch reports 0 (an idle layer).
func printResult(w io.Writer, correct bool, out *outcome, defs []metricDef, required bool) error {
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if correct && required && !ok {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, out.attempted, out.failed, ms}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// formatNotes renders "name: value" lines sorted by name.
func formatNotes(prefix string, kv map[string]int64) []string {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, 0, len(keys))
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("%s %s=%d", prefix, k, kv[k]))
	}
	return lines
}
