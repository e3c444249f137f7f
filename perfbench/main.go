// Command perfbench is wcdsnet's end-to-end benchmark. One invocation runs
// one workload from one process and prints, as its last line, a JSON
// object with the run's correctness, op counts and metrics:
//
//	perfbench --workload sweep --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (setup_s, rate_per_s, p50_ms,
// peak_mem_mb). --trace 1 runs the same set-up and inputs, times half the
// budget untraced and half traced, and reports the per-layer metrics: the
// benchmark wraps its own calls into each layer's exported functions in
// spans, and writes the spans to --spans when it ends. See README.md for
// the workloads, the metrics and which layer feeds which end-to-end number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times each workload sets up per run; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 3

// metric describes one reported number.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run: what a user of the system
// sees. Each workload reports all of them.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"rate_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"peak_mem_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. Every workload reports every
// one; a layer the workload never calls reads 0.
var perLayer = []metric{
	{"udg.gen_ms", "ms", "lower"},
	{"udg.build_ms", "ms", "lower"},
	{"udg.mallocs", "count", "lower"},
	{"mis.verify_ms", "ms", "lower"},
	{"wcds.protocol_ms", "ms", "lower"},
	{"wcds.mallocs_per_msg", "allocs/msg", "lower"},
	{"wcds.alloc_bytes_per_msg", "B/msg", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"wcds.messages", "count", "lower"},
	{"wcds.deliveries", "count", "lower"},
	{"wcds.phase.mis.messages", "count", "lower"},
	{"wcds.phase.recruit.messages", "count", "lower"},
	{"wcds.phase.reliable.messages", "count", "lower"},
	{"obs.phases_overhead", "ratio", "lower"},
	{"algo.centralized_ms", "ms", "lower"},
	{"wcds.sync_ms", "ms", "lower"},
	{"wcds.detailed_ms", "ms", "lower"},
	{"wcds.event_ms", "ms", "lower"},
	{"reliable.event_lossy_ms", "ms", "lower"},
	{"reliable.retransmits", "count", "lower"},
	{"simnet.dropped", "count", "lower"},
	{"spanner.dilation_ms", "ms", "lower"},
	{"spanner.mallocs_per_report", "allocs", "lower"},
	{"route.broadcast_ms", "ms", "lower"},
	{"batch.parallel_eff", "ratio", "higher"},
	{"fleet.shards", "count", "lower"},
	{"fleet.redispatched", "count", "lower"},
	{"fleet.cell_regen_ratio", "ratio", "lower"},
	{"fleet.compute_ms", "ms", "lower"},
	{"fleet.overhead_ms", "ms", "lower"},
	{"fleet.worker_util_min", "ratio", "higher"},
	{"service.compute_ms.backbone", "ms", "lower"},
	{"service.compute_ms.dilation", "ms", "lower"},
	{"service.compute_ms.broadcast", "ms", "lower"},
	{"service.overhead_ms.backbone", "ms", "lower"},
	{"service.overhead_ms.dilation", "ms", "lower"},
	{"service.overhead_ms.broadcast", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.rejected", "count", "lower"},
	{"http.req_bytes", "B", "lower"},
	{"http.resp_bytes", "B", "lower"},
	{"trace_overhead", "ratio", "lower"},
}

// workload is one named input set and the bench that runs it.
type workload struct {
	name string
	why  string
	make func(seed int64) bench
}

var workloads = []workload{
	{"sweep", "the pinned 132-scenario paper sweep through in-process RunBatch: event engine under loss, dilation, scene generation, sharding, memoisation; traced, also through a 2-worker fleet", newSweep},
	{"scale", "Algorithm II on the event engine over fresh 250k-node scenes, generation to verified backbone: the protocol's allocation path", newScale},
	{"serve", "closed-loop HTTP from 2 clients against the service: decode, pool, cache and encode around backbone, dilation and broadcast compute", newServe},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is one workload's lifecycle inside a run.
type bench interface {
	// setup builds everything the timed ops need. It runs setupReps
	// times; the last set-up is the one the ops use.
	setup() error
	// run executes ops until budget has elapsed, from the workload's first
	// input on, recording into o. Traced runs record spans and layers.
	run(budget time.Duration, traced bool, o *outcome)
	// finish derives the workload's metrics once both passes are done.
	finish(o *outcome)
	close()
}

// outcome accumulates one run's measurements.
type outcome struct {
	tr *tracer

	setups    []float64 // set-up durations, s
	workPerOp float64   // scenarios or nodes per op (serve sets rate instead)
	lat       []float64 // untraced op latencies, ms
	mem       []float64 // untraced: peak resident set per op (serve: per second), MiB
	tlat      []float64 // traced op latencies, ms
	rate      float64   // work/s when it is not derived from the median op

	attempted, failed int
	errs              []string

	layers layers             // traced: one sample per op per layer
	fixed  map[string]float64 // traced: per-layer values computed once
	detail map[string]float64 // extra end-to-end figures for the log
}

func newOutcome(tr *tracer) *outcome {
	return &outcome{tr: tr, layers: layers{}, fixed: map[string]float64{}, detail: map[string]float64{}}
}

// record counts one op; a failed op is counted and its latency dropped.
func (o *outcome) record(traced bool, latMS float64, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 5 {
			o.errs = append(o.errs, err.Error())
		}
		return
	}
	if traced {
		o.tlat = append(o.tlat, latMS)
	} else {
		o.lat = append(o.lat, latMS)
	}
}

// serialLoop runs op(i) for i = 0, 1, ... until budget has elapsed. op
// returns the op's own latency, so traced ops can leave their after-op
// probes out of it. Untraced ops also record their peak resident set.
// Where ops rotate through several inputs, a traced pass ends on a whole
// rotation, so each input counts equally in the layer medians and their
// exact counts repeat from run to run.
func serialLoop(budget time.Duration, traced bool, rotation int, o *outcome, op func(i int, traced bool) (float64, error)) {
	start := time.Now()
	cutPeakRSS()
	for i := 0; time.Since(start) < budget || (traced && i%rotation != 0); i++ {
		lat, err := op(i, traced)
		o.record(traced, lat, err)
		if !traced {
			o.mem = append(o.mem, cutPeakRSS())
		}
	}
}

// Metric is one printed value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of a run's output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep, scale or serve")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time per run (set-up excluded)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(names(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	traced := *trace == 1
	budget := time.Duration(*seconds * float64(time.Second))

	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())
	o, err := measure(w, *seed, budget, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range o.errs {
		fmt.Fprintln(stderr, "perfbench: failed op:", e)
	}
	if traced {
		path, err := o.tr.write(*spans, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans     : %d written to %s\n", len(o.tr.spans), path)
	}
	res := o.result(traced)
	logSummary(stdout, o, res, traced)
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return 0
}

// measure sets the workload up setupReps times, then runs its ops: for the
// whole budget untraced, or half untraced and half traced.
func measure(w workload, seed int64, budget time.Duration, traced bool) (*outcome, error) {
	o := newOutcome(newTracer(w.name))
	b := w.make(seed)
	defer b.close()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	steal0, total0 := cpuStat()
	if !traced {
		b.run(budget, false, o)
	} else {
		b.run(budget/2, false, o)
		b.run(budget/2, true, o)
	}
	if steal1, total1 := cpuStat(); total1 > total0 {
		// The share of the machine's CPU time the hypervisor took while
		// ops ran: a run with a high share was slowed by its neighbours.
		o.detail["cpu_steal"] = (steal1 - steal0) / (total1 - total0)
	}
	o.addTail()
	b.finish(o)
	return o, nil
}

// addTail records the sample count and p90, the latter only where at least
// minTail samples lie beyond it.
func (o *outcome) addTail() {
	if p, ok := percentile(o.lat, 0.90); ok {
		o.detail["p90_ms"] = p
	}
	o.detail["samples"] = float64(len(o.lat))
}

// result assembles the printed metrics.
func (o *outcome) result(traced bool) Result {
	res := Result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]Metric{},
	}
	if !traced {
		p50 := median(o.lat)
		rate := o.rate
		if rate == 0 {
			rate = ratio(o.workPerOp, p50/1e3)
		}
		vals := map[string]float64{
			"setup_s":     median(o.setups),
			"rate_per_s":  rate,
			"p50_ms":      p50,
			"peak_mem_mb": median(o.mem),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = Metric{Value: vals[m.Name], Unit: m.Unit}
		}
		return res
	}
	vals := o.layers.medians()
	for k, v := range o.fixed {
		vals[k] = v
	}
	vals["trace_overhead"] = ratio(median(o.tlat), median(o.lat))
	for _, m := range perLayer {
		res.Metrics[m.Name] = Metric{Value: vals[m.Name], Unit: m.Unit}
	}
	return res
}

// logSummary prints the human-readable lines that precede the result.
func logSummary(out io.Writer, o *outcome, res Result, traced bool) {
	fmt.Fprintf(out, "set-up    : %d times, median %.3f s\n", len(o.setups), median(o.setups))
	fmt.Fprintf(out, "ops       : %d attempted, %d failed, %d untraced, %d traced\n",
		o.attempted, o.failed, len(o.lat), len(o.tlat))
	if len(o.lat) > 0 {
		s := sorted(o.lat)
		fmt.Fprintf(out, "latency   : min %.3f  median %.3f  max %.3f ms (untraced)\n", s[0], median(s), s[len(s)-1])
	}
	if blob, err := json.Marshal(o.detail); err == nil {
		// Figures beside the result metrics (p90 only where at least
		// minTail samples lie beyond it); steady.py reads this line.
		fmt.Fprintf(out, "detail %s\n", blob)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if traced && res.Metrics[k].Value == 0 {
			continue // a layer this workload does not call
		}
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func names() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}
