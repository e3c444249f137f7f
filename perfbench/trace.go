package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// spanRecord is one traced call, as written to the spans file.
type spanRecord struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the tracer started
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends, so recording a span costs a clock read and an append.
type tracer struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []spanRecord
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// span is an open traced call; end closes it.
type span struct {
	t      *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

// start opens a span under parent (0 for a root) and reserves its ID.
func (t *tracer) start(name string, parent int) *span {
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{})
	id := len(t.spans)
	t.mu.Unlock()
	return &span{t: t, id: id, parent: parent, name: name, start: time.Now()}
}

// end records the span and returns its duration in milliseconds.
func (s *span) end() float64 {
	stop := time.Now()
	s.t.mu.Lock()
	s.t.spans[s.id-1] = s.t.spanRecord(s.id, s.parent, s.name, s.start, stop)
	s.t.mu.Unlock()
	return ms(stop.Sub(s.start))
}

// record adds a span timed elsewhere and returns its duration in
// milliseconds.
func (t *tracer) record(name string, parent int, start, end time.Time) float64 {
	t.mu.Lock()
	t.spans = append(t.spans, t.spanRecord(len(t.spans)+1, parent, name, start, end))
	t.mu.Unlock()
	return ms(end.Sub(start))
}

func (t *tracer) spanRecord(id, parent int, name string, start, end time.Time) spanRecord {
	return spanRecord{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: start.Sub(t.origin).Nanoseconds(),
		EndNS:   end.Sub(t.origin).Nanoseconds(),
	}
}

// write stores the spans as JSON under dir and returns the file's path.
func (t *tracer) write(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", t.workload, seed))
	return path, os.WriteFile(path, blob, 0o644)
}

// layers collects per-layer values, one sample per traced op, and reports
// each layer's median.
type layers map[string][]float64

func (l layers) add(name string, v float64) { l[name] = append(l[name], v) }

// addOp adds one traced op's per-layer sums.
func (l layers) addOp(op map[string]float64) {
	for k, v := range op {
		l.add(k, v)
	}
}

func (l layers) medians() map[string]float64 {
	out := make(map[string]float64, len(l))
	for k, v := range l {
		out[k] = median(v)
	}
	return out
}

// allocs is a snapshot of the cumulative heap allocation counters.
type allocs struct{ mallocs, bytes uint64 }

func readAllocs() allocs {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocs{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

func (a allocs) since(b allocs) allocs {
	return allocs{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes}
}

// cpuTimes reads the runtime's cumulative GC and total CPU estimates.
func cpuTimes() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// cutPeakRSS returns the process's peak resident set since the previous
// cut, in MiB, and starts the next interval. The kernel keeps the peak
// exactly (VmHWM in /proc/self/status); writing "5" to
// /proc/self/clear_refs resets it to the current resident set. Where /proc
// is missing or refuses the reset, it returns the memory the Go runtime
// holds from the OS at the moment.
func cutPeakRSS() float64 {
	peak, ok := vmHWM()
	if !ok || os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) != nil {
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		metrics.Read(s)
		return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
	}
	return peak
}

// vmHWM reads the process's peak resident set from /proc/self/status, in
// MiB.
func vmHWM() (float64, bool) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			if len(f) == 2 && f[1] == "kB" {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024, true
				}
			}
		}
	}
	return 0, false
}

// cpuStat reads the machine's cumulative CPU time from /proc/stat: the
// time the hypervisor stole from the machine's CPUs and the total.
// Both are 0 where /proc is missing.
func cpuStat() (steal, total float64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
