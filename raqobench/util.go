package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// callers is the closed-loop concurrency: two callers, never more than
// the CPUs this process may use.
func callers() int { return max(1, min(2, runtime.NumCPU())) }

// residentMB reads the process's resident set size (VmRSS) in MB; 0 when
// /proc is unavailable.
func residentMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "VmRSS:" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// percentile is the nearest-rank percentile of xs (p in (0,100]); xs is
// sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median of xs (the mean of the middle pair for even counts); xs is sorted
// in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the method the
// benchmark's spread bound is stated in. xs is sorted in place.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	if ld < 2 {
		if ld == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// window is one stretch of a run's measured time: the operations it
// completed, its wall time, their latencies in microseconds and the
// resident set at its end (0 when not sampled). With weight set, lat[i]
// is the latency of weight[i] operations alike; without it, of one.
type window struct {
	ops    int64
	wall   time.Duration
	lat    []float64
	weight []float64
	rssMB  float64
}

// latencyPercentile is the nearest-rank percentile (p in (0,100]) of the
// window's operation latencies, each sample counted by its weight.
func (w window) latencyPercentile(p float64) float64 {
	lat := append([]float64(nil), w.lat...)
	if w.weight == nil {
		return percentile(lat, p)
	}
	idx := make([]int, len(lat))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += w.weight[i]
	}
	sort.Slice(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })
	rank, cum := p/100*total, 0.0
	for _, i := range idx {
		if cum += w.weight[i]; cum >= rank {
			return lat[i]
		}
	}
	return 0
}

// latencySum is the sum of the window's operation latencies and their
// count, each sample counted by its weight.
func (w window) latencySum() (sum, n float64) {
	for i, x := range w.lat {
		wt := 1.0
		if w.weight != nil {
			wt = w.weight[i]
		}
		sum += wt * x
		n += wt
	}
	return sum, n
}

// windowMetrics reports throughput, the median and 90th-percentile
// operation latency and the resident set, each as the median over the
// run's windows, so one slow stretch of a shared machine, or one garbage
// collection caught at its peak, moves them little.
func windowMetrics(ws []window) map[string]float64 {
	var thr, p50, p90, rss []float64
	for _, w := range ws {
		if w.rssMB > 0 {
			rss = append(rss, w.rssMB)
		}
		if w.ops == 0 || w.wall <= 0 {
			continue
		}
		thr = append(thr, float64(w.ops)/w.wall.Seconds())
		p50 = append(p50, w.latencyPercentile(50))
		p90 = append(p90, w.latencyPercentile(90))
	}
	return map[string]float64{"ops_per_s": median(thr), "op_p50_us": median(p50),
		"op_p90_us": median(p90), "rss_mb": median(rss)}
}

// meanLatency is the mean operation latency over all windows.
func meanLatency(ws []window) float64 {
	var sum, n float64
	for _, w := range ws {
		s, k := w.latencySum()
		sum += s
		n += k
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// setupTimer times a workload's set-up, build, n times: before runs the
// first half and returns the result to measure; after runs the rest once
// the measured phase is over and returns the median wall time of one
// set-up in seconds. Spread so, the set-ups meet the same stretches of a
// shared machine as the measured phase, not only its first seconds. Each
// set-up starts after a garbage collection, so none pays for its
// predecessor's garbage.
type setupTimer[T any] struct {
	n     int
	build func() (T, error)
	times []float64
}

// run times k set-ups and returns the last one's result.
func (st *setupTimer[T]) run(k int) (T, error) {
	var last T
	for i := 0; i < k; i++ {
		runtime.GC()
		start := time.Now()
		v, err := st.build()
		if err != nil {
			return last, err
		}
		st.times = append(st.times, time.Since(start).Seconds())
		last = v
	}
	return last, nil
}

func (st *setupTimer[T]) before() (T, error) { return st.run(st.n - st.n/2) }

func (st *setupTimer[T]) after() (float64, error) {
	if _, err := st.run(st.n / 2); err != nil {
		return 0, err
	}
	return median(st.times), nil
}

// repeatRuns runs the workload n times, each in a fresh copy of this
// binary (so each run has its own heap and cold set-up), one after the
// other, and prints the median, quartiles and relative spread of every
// metric plus each run's failed share.
func repeatRuns(n int, name string, seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "raqobench: %v\n", err)
		return 1
	}
	type result struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "raqobench: run with seed %d: %v\n", s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "raqobench: run with seed %d: %v\n", s, err)
			return 1
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v attempted=%d failed=%d share=%.9f\n",
			s, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			values[k] = append(values[k], r.Metrics[k].Value)
			units[k] = r.Metrics[k].Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-28s %14s %14s %14s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range names {
		xs := values[k]
		q1, q3 := quartiles(append([]float64(nil), xs...))
		med := median(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(&buf, "%-28s %14.6g %14.6g %14.6g %8.4f %s\n", k, q1, med, q3, spread, units[k])
	}
	_, _ = stdout.Write(buf.Bytes())
	return 0
}
