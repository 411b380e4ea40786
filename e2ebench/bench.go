package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number. n is the sample count behind a timing
// (printed beside it); count marks a quantity that must repeat exactly
// across runs at the same seed rather than a timing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	count bool
}

// The end-to-end metrics every workload reports with --trace 0.
var e2eMetrics = []string{"setup_s", "report_p50_ms", "reports_per_s", "cpu_ms_per_op", "alloc_mb_per_op", "rss_peak_mb"}

// layerMetric describes one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	count      bool
}

// layerMetrics is the per-layer catalogue every workload reports with
// --trace 1; a metric whose layer the workload does not exercise reads 0.
// README.md says which end-to-end metric each one should move.
var layerMetrics = []layerMetric{
	// Ingest.
	{"sql.load_ms", "ms", false},
	{"csvio.ingest_ms", "ms", false},
	{"csvio.rows_per_s", "1/s", false},
	{"csvio.alloc_mb", "MB", false},
	{"table.ingest_chunks", "count", true},
	{"table.merge_remaps", "count", true},
	// Restruct and translate.
	{"restruct.restruct_ms", "ms", false},
	{"restruct.fd_splits_ms", "ms", false},
	{"restruct.hidden_objects_ms", "ms", false},
	{"restruct.lhs_ms", "ms", false},
	{"eer.translate_ms", "ms", false},
	{"core.reverse_ms", "ms", false},
	{"core.reverse_alloc_mb", "MB", false},
	// Discovery kernels.
	{"ind.discovery_ms", "ms", false},
	{"ind.inds_tested", "count", true},
	{"fd.rhs_ms", "ms", false},
	{"fd.check_ms", "ms", false},
	{"fd.checks", "count", true},
	{"stats.cache_hits", "count", true},
	{"stats.cache_misses", "count", true},
	{"stats.hit_ratio", "ratio", false},
	{"stats.rows_scanned", "count", true},
	// Pool and storage.
	{"serve.pool_hits", "count", true},
	{"serve.pool_misses", "count", true},
	{"serve.pool_evictions", "count", true},
	{"serve.pool_hit_ratio", "ratio", false},
	{"serve.pool_resident_mb", "MB", false},
	{"stats.shared_cache_hits", "count", false},
	{"storage.open_ms", "ms", false},
	{"serve.miss_p50_ms", "ms", false},
	{"serve.hit_p50_ms", "ms", false},
	// Serve path.
	{"serve.submit_ms", "ms", false},
	{"serve.fetch_ms", "ms", false},
	{"serve.polls_per_job", "count", false},
	{"serve.job_run_ms", "ms", false},
	{"serve.wait_ms", "ms", false},
	{"serve.rejected", "count", false},
	{"appscan.scan_ms", "ms", false},
	{"appscan.joins", "count", true},
	{"core.render_ms", "ms", false},
	// Write path.
	{"serve.append_run_ms", "ms", false},
	{"stats.delta_refines", "count", false},
	{"table.appended_rows", "count", true},
	{"fd.reused", "count", false},
	{"fd.delta_checked", "count", false},
	{"fd.refuted", "count", false},
	{"ind.reused", "count", false},
	{"ind.recounted", "count", false},
	// Latency tails and appends, which not every workload has; the
	// end-to-end set holds only metrics every workload reports.
	{"report_p90_ms", "ms", false},
	{"append_p50_ms", "ms", false},
	{"append_p90_ms", "ms", false},
	// Self time per layer: each span's duration minus the part its
	// child spans cover, as a mean per traced operation.
	{"self.sql_ms", "ms", false},
	{"self.csvio_ms", "ms", false},
	{"self.storage_ms", "ms", false},
	{"self.appscan_ms", "ms", false},
	{"self.ind_ms", "ms", false},
	{"self.fd_ms", "ms", false},
	{"self.restruct_ms", "ms", false},
	{"self.eer_ms", "ms", false},
	{"self.core_ms", "ms", false},
	{"self.serve_ms", "ms", false},
	{"self.bench_ms", "ms", false},
	// Tracing overhead: traced and untraced operations alternate within
	// the traced run.
	{"trace.untraced_p50_ms", "ms", false},
	{"trace.traced_p50_ms", "ms", false},
	{"trace.overhead_pct", "%", false},
}

// bench is the state of one run: configuration, operation accounting,
// samples and the span recorder of a traced run.
type bench struct {
	cfg config
	rec *recorder // nil on untraced runs

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // first few failure reasons, for stderr
	notes     []string
	samples   map[string][]float64
	values    map[string]metric // metrics set directly (not from samples)
	// fp and scores are the inputs' fingerprint and ground-truth scores
	// checkInputs compared with the pins.
	fp     string
	scores []string

	measureStart time.Time
	allocStart   uint64
	cpuStart     time.Duration
	stealStart   float64
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg, samples: map[string][]float64{}, values: map[string]metric{}}
	if cfg.trace {
		b.rec = newRecorder()
	}
	return b
}

// op records one attempted operation and, when err is non-nil, its
// failure. A failure is an error, a refused or failed HTTP request, or
// an oracle mismatch.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 5 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// invalid records a failed check outside the measured operations (an
// input fingerprint or ground-truth score that does not match its pin).
func (b *bench) invalid(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// sample appends one observation of a per-layer or end-to-end quantity.
func (b *bench) sample(name string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.samples[name] = append(b.samples[name], v)
}

func (b *bench) set(name string, v float64, unit string, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.values[name] = metric{Value: v, Unit: unit, n: n}
}

// add increments a directly set count.
func (b *bench) add(name string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.values[name]
	m.Value += v
	m.n++
	b.values[name] = m
}

// tamper passes an artifact through the self-test's fault hook.
func (b *bench) tamper(kind, text string) string {
	if b.cfg.tamper == nil {
		return text
	}
	return b.cfg.tamper(kind, text)
}

// setup runs fn setupRuns times, each a complete set-up from scratch,
// reports the median wall time as setup_s and returns the last set-up's
// state and teardown: the benchmark's own set-up cost, measured steadily,
// so that work moved into set-up shows. Every earlier state is torn down
// before the next set-up starts.
func setup[T any](b *bench, fn func() (T, func(), error)) (T, func(), error) {
	var (
		st       T
		teardown = func() {}
		walls    []float64
	)
	for i := 0; i < setupRuns; i++ {
		teardown()
		runtime.GC()
		start := time.Now()
		var err error
		st, teardown, err = fn()
		if teardown == nil {
			teardown = func() {}
		}
		if err != nil {
			return st, teardown, fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	b.set("setup_s", median(walls), "s", len(walls))
	return st, teardown, nil
}

// setupRuns is how many times each workload sets up per run.
const setupRuns = 3

// beginMeasure marks the start of the measured phase: it settles the
// heap, resets the peak-RSS watermark so rss_peak_mb covers the measured
// work only, and reads the allocation counter.
func (b *bench) beginMeasure() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS; without
	// it (non-Linux) the peak includes set-up.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o644)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.allocStart = ms.TotalAlloc
	b.cpuStart = cpuTime()
	b.stealStart = stealSeconds()
	b.measureStart = time.Now()
}

// endMeasure closes the measured phase over ops operations and reports
// the end-to-end metrics derived from it: throughput, allocation per
// operation and peak RSS.
func (b *bench) endMeasure(reports, ops int) {
	wall := time.Since(b.measureStart).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ops < 1 {
		ops = 1
	}
	b.set("reports_per_s", float64(reports)/wall, "1/s", reports)
	b.set("cpu_ms_per_op", float64((cpuTime()-b.cpuStart).Microseconds())/1000/float64(ops), "ms", ops)
	b.set("alloc_mb_per_op", float64(ms.TotalAlloc-b.allocStart)/float64(ops)/(1<<20), "MB", ops)
	b.set("rss_peak_mb", float64(peakRSS())/(1<<20), "MB", 1)
	// Time the hypervisor ran other guests on this machine's CPUs slows
	// every timing; noted so a slow run can be told from a regression.
	if end := stealSeconds(); b.stealStart >= 0 && end >= b.stealStart {
		b.note("CPU steal during the measured phase: %.1f%% of %d CPUs", 100*(end-b.stealStart)/(wall*float64(runtime.NumCPU())), runtime.NumCPU())
	}
}

// stealSeconds reads the machine's cumulative CPU steal time from
// /proc/stat (in USER_HZ ticks of 1/100 s); -1 where it is unavailable.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads the process's peak resident set (VmHWM) in bytes.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// latency reports a timing series as its median and, as report_p90_ms or
// append_p90_ms, its 90th percentile when at least minBeyond samples lie
// beyond it.
func (b *bench) latency(prefix string, xs []float64) {
	b.set(prefix+"_p50_ms", median(xs), "ms", len(xs))
	if p, v, ok := tailPercentile(xs); ok {
		b.note("%s latency tail: p%v = %.4f ms (n=%d)", prefix, p, v, len(xs))
	}
	if len(xs) > 0 && beyond(len(xs), 90) >= minBeyond {
		b.set(prefix+"_p90_ms", percentile(sorted(xs), 90), "ms", len(xs))
	}
}

// reported returns the metrics this run prints: the end-to-end set
// untraced, the per-layer catalogue traced.
func (b *bench) reported() map[string]metric {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[string]metric{}
	if !b.cfg.trace {
		for _, n := range e2eMetrics {
			out[n] = b.values[n]
		}
		return out
	}
	for _, lm := range layerMetrics {
		m, ok := b.values[lm.name]
		if !ok {
			xs := b.samples[lm.name]
			m = metric{Value: median(xs), n: len(xs)}
		}
		m.Unit = lm.unit
		m.count = lm.count
		out[lm.name] = m
	}
	return out
}

// equalOrDiff returns nil when got equals want, else an error naming the
// first differing line.
func equalOrDiff(what, got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("%s differs from its reference at line %d: got %q, want %q", what, i+1, gl, wl)
		}
	}
	return fmt.Errorf("%s differs from its reference", what)
}

// stripVolatile cuts a report's Timings and Trace sections (wall-clock
// numbers), leaving everything the oracles compare.
func stripVolatile(report string) string {
	if i := strings.Index(report, "\nTimings\n"); i >= 0 {
		return report[:i]
	}
	return report
}

// discoveryPart cuts a full report down to the discovery sections, the
// part a discovery-only (incremental) job reports.
func discoveryPart(report string) string {
	if i := strings.Index(report, "\nRestructured schema (Restruct)\n"); i >= 0 {
		return report[:i]
	}
	return report
}

// overhead reports the traced run's alternating traced and untraced
// operation latencies and the tracing overhead between their medians.
func (b *bench) overhead(traced, untraced []float64) {
	if b.rec == nil || len(traced) == 0 || len(untraced) == 0 {
		return
	}
	t, u := median(traced), median(untraced)
	b.set("trace.traced_p50_ms", t, "ms", len(traced))
	b.set("trace.untraced_p50_ms", u, "ms", len(untraced))
	b.set("trace.overhead_pct", 100*(t-u)/u, "%", len(traced)+len(untraced))
}
