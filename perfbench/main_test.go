package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the registry the
// binary prints.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the binary %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if (metric{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, binary %+v", i, m, endToEnd[i])
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(doc.PerLayer, perLayer) {
		t.Errorf("per-layer metrics differ between BENCHMARK.json and the binary")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for n := 1; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		for _, p := range []float64{0.5, 0.9, 0.99} {
			v, ok := percentile(xs, p)
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if ok && beyond < minTail {
				t.Fatalf("n=%d p=%v: reported with %d samples beyond", n, p, beyond)
			}
			if !ok && beyond >= minTail {
				t.Fatalf("n=%d p=%v: withheld with %d samples beyond", n, p, beyond)
			}
		}
	}
}

// TestSummaryWithholdsTails checks the printed output: p90 appears only
// when at least ten samples lie beyond it.
func TestSummaryWithholdsTails(t *testing.T) {
	for _, n := range []int{5, 99, 100, 400} {
		o := newOutcome(newTracer("test"))
		o.setups = []float64{1}
		o.workPerOp = 1
		for i := 0; i < n; i++ {
			o.lat = append(o.lat, float64(i+1))
		}
		o.addTail()
		var out bytes.Buffer
		logSummary(&out, o, o.result(false), false)
		has := strings.Contains(out.String(), "p90_ms")
		if want := n >= 100; has != want {
			t.Errorf("%d samples: p90 printed = %v, want %v:\n%s", n, has, want, out.String())
		}
	}
}

func TestResultShape(t *testing.T) {
	o := newOutcome(newTracer("test"))
	o.setups = []float64{0.5, 0.7, 0.6}
	o.lat = []float64{10, 20, 30}
	o.tlat = []float64{11, 22}
	o.workPerOp = 132
	o.attempted = 5
	o.layers.add("udg.gen_ms", 3)
	for traced, want := range map[bool][]metric{false: endToEnd, true: perLayer} {
		blob, err := json.Marshal(o.result(traced))
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(blob, &raw); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Fatalf("result keys %v", keys)
		}
		var metrics map[string]Metric
		if err := json.Unmarshal(raw["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), len(want))
		}
		for _, m := range want {
			got, ok := metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s missing or with unit %q", traced, m.Name, got.Unit)
			}
		}
	}
	res := o.result(false)
	if got := res.Metrics["rate_per_s"].Value; math.Abs(got-132/0.020) > 1e-9 {
		t.Errorf("rate_per_s = %v, want work per op over the median op time", got)
	}
	if got := res.Metrics["setup_s"].Value; got != 0.6 {
		t.Errorf("setup_s = %v, want the median set-up", got)
	}
}

func TestServeSequenceDeterministic(t *testing.T) {
	seq := func(seed int64) []request {
		g := newReqGen(seed)
		out := make([]request, 500)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b, c := seq(3), seq(3), seq(4)
	counts := map[string]int{}
	repeats := 0
	for i := range a {
		if a[i].endpoint != b[i].endpoint || !bytes.Equal(a[i].body, b[i].body) || a[i].repeatOf != b[i].repeatOf {
			t.Fatalf("request %d differs between two sequences of seed 3", i)
		}
		if r := a[i].repeatOf; r >= 0 {
			repeats++
			if r >= i || i-r > repeatWindow || a[r].repeatOf >= 0 || !bytes.Equal(a[r].body, a[i].body) {
				t.Fatalf("request %d repeats %d, which is not an earlier fresh request in the window", i, r)
			}
		} else {
			counts[a[i].endpoint]++
		}
	}
	if slices.EqualFunc(a, c, func(x, y request) bool { return bytes.Equal(x.body, y.body) }) {
		t.Error("seeds 3 and 4 gave the same sequence")
	}
	// 50/20/10/20 mix: loose bounds over 500 draws.
	for ep, want := range map[string]int{"backbone": 250, "dilation": 100, "broadcast": 50} {
		if got := counts[ep]; got < want*6/10 || got > want*14/10 {
			t.Errorf("%d %s requests in 500, want about %d", got, ep, want)
		}
	}
	if repeats < 60 || repeats > 140 {
		t.Errorf("%d repeats in 500, want about 100", repeats)
	}
}

func TestScaleScenesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 250k-node scenes")
	}
	a, b, c := scaleScene(5, 2), scaleScene(5, 2), scaleScene(5, 3)
	if !slices.Equal(a.Pos, b.Pos) || !slices.Equal(a.ID, b.ID) {
		t.Error("the same seed and op gave different scenes")
	}
	if slices.Equal(a.Pos, c.Pos) {
		t.Error("ops 2 and 3 gave the same scene")
	}
	if a.N() != scaleNodes {
		t.Errorf("scene has %d nodes, want %d", a.N(), scaleNodes)
	}
	if sceneSeed(5, -1) == sceneSeed(5, 0) {
		t.Error("a warm-up scene shares its seed with op 0")
	}
}

func TestSweepSpecsDeterministic(t *testing.T) {
	a, b := sweepSpecs(9), sweepSpecs(9)
	if len(a) != sweepsPerRun {
		t.Fatalf("%d sweeps, want %d", len(a), sweepsPerRun)
	}
	seen := map[int64]bool{}
	for i := range a {
		if !slices.Equal(a[i].Seeds, b[i].Seeds) || len(a[i].Seeds) != 3 {
			t.Errorf("sweep %d: seeds %v and %v", i, a[i].Seeds, b[i].Seeds)
		}
		if n := a[i].NumScenarios(); n != 132 {
			t.Errorf("sweep %d: %d scenarios, want 132", i, n)
		}
		for _, s := range a[i].Seeds {
			if seen[s] {
				t.Errorf("cell seed %d used twice", s)
			}
			seen[s] = true
		}
	}
}

func TestCellRegenRatio(t *testing.T) {
	got, err := cellRegenRatio(sweepSpecs(1)[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.25 {
		t.Errorf("cell_regen_ratio at width 8 = %v, want 27/12 = 2.25", got)
	}
	if got, _ := cellRegenRatio(sweepSpecs(1)[0], 11); got != 1 {
		t.Errorf("cell_regen_ratio at width 11 = %v, want 1", got)
	}
}

func TestChunkRate(t *testing.T) {
	var ends []float64
	for i := 1; i <= 1000; i++ {
		ends = append(ends, float64(i)*0.01) // 100 completions per second
	}
	ends[500] += 3 // one stall
	if got := chunkRate(ends, 100); math.Abs(got-100) > 0.5 {
		t.Errorf("chunkRate = %v, want 100", got)
	}
}

// TestSelfTest feeds every correctness check a clean and a corrupted input.
func TestSelfTest(t *testing.T) {
	cases, err := selfTest()
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, c := range cases {
		if !c.ok() {
			t.Errorf("%s: corrupt=%v, check returned %v", c.name, c.corrupt, c.err)
		}
		if c.corrupt {
			fired++
		}
	}
	if fired < 10 {
		t.Errorf("only %d corrupted inputs tried", fired)
	}
}

// TestWorkloadsRun runs each workload's set-up, untraced and traced passes
// on a short budget: no op may fail, and the traced pass must fill the
// layers the workload calls.
func TestWorkloadsRun(t *testing.T) {
	want := map[string][]string{
		"sweep": {"udg.gen_ms", "wcds.sync_ms", "reliable.event_lossy_ms", "spanner.dilation_ms", "wcds.phase.mis.messages", "batch.parallel_eff",
			"fleet.shards", "fleet.compute_ms", "fleet.overhead_ms", "fleet.cell_regen_ratio", "fleet.worker_util_min"},
		"scale": {"udg.gen_ms", "wcds.protocol_ms", "wcds.mallocs_per_msg", "obs.phases_overhead", "wcds.phase.recruit.messages"},
		"serve": {"service.compute_ms.backbone", "service.cache_hit_ratio", "http.resp_bytes", "wcds.sync_ms", "spanner.dilation_ms"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "scale" {
				t.Skip("long set-up")
			}
			o, err := measure(w, 1, 600*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", o.failed, o.attempted, o.errs)
			}
			res := o.result(true)
			for _, name := range want[w.name] {
				if res.Metrics[name].Value == 0 {
					t.Errorf("%s: layer metric %s is 0", w.name, name)
				}
			}
			if len(o.tr.spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}
