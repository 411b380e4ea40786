package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tinyRun runs one workload at tiny scale on the self-test seed.
func tinyRun(t *testing.T, name string, trace bool, tamper func(kind, text string) string) *bench {
	t.Helper()
	cfg := config{workload: name, seed: pins.SelftestSeed, seconds: 1, trace: trace,
		scale: tinyScale, work: t.TempDir(), tamper: tamper}
	b, err := runWorkload(cfg, workloads[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny scale
// on the self-test seed: every oracle must be green, the inputs must
// match their pinned fingerprint and ground-truth scores, and every
// metric must be reported with its unit.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			b := tinyRun(t, name, trace, nil)
			out := b.output()
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d/%d: %v", name, trace, out.Correct, out.Failed, out.Attempted, b.failures)
			}
			if _, ok := pins.Inputs[pinKey(name, tinyScale, pins.SelftestSeed)]; !ok {
				t.Errorf("%s: no pinned inputs for the self-test seed", name)
			}
			want := len(layerMetrics)
			if !trace {
				want = len(e2eMetrics)
			}
			if len(out.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), want)
			}
			for n, m := range out.Metrics {
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", name, n)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
		}
	}
}

// TestCountsRepeat checks that the counts the benchmark labels as counts
// repeat exactly across two runs at the same seed.
func TestCountsRepeat(t *testing.T) {
	for name, counts := range map[string][]string{
		"cli-csv": {"appscan.joins", "fd.checks", "ind.inds_tested", "stats.cache_hits",
			"stats.cache_misses", "table.ingest_chunks", "table.merge_remaps"},
		"serve-oneshot-overbudget": {"serve.pool_hits", "serve.pool_misses", "serve.pool_evictions"},
	} {
		a, b := tinyRun(t, name, true, nil).output(), tinyRun(t, name, true, nil).output()
		for _, c := range counts {
			if a.Metrics[c].Unit != "count" {
				t.Errorf("%s: %s is not labelled a count", name, c)
			}
			if a.Metrics[c] != b.Metrics[c] {
				t.Errorf("%s: %s = %v then %v", name, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
		if name == "serve-oneshot-overbudget" && a.Metrics["serve.pool_evictions"].Value == 0 {
			t.Errorf("the over-budget corpus evicted nothing: %v", a.Metrics)
		}
	}
}

// TestNegativeControls proves the oracles count a wrong artifact as a
// failure: a corrupted report, and a wrong final state after the appends.
func TestNegativeControls(t *testing.T) {
	corrupt := func(want string) func(kind, text string) string {
		return func(kind, text string) string {
			if kind != want {
				return text
			}
			return strings.Replace(text, "IND (", "IND [", 1)
		}
	}
	for _, c := range []struct{ workload, kind string }{
		{"cli-csv", "report"},
		{"serve-oneshot-overbudget", "report"},
		{"serve-warm-rw", "report"},
		{"serve-warm-rw", "final"},
	} {
		out := tinyRun(t, c.workload, false, corrupt(c.kind)).output()
		if out.Correct || out.Failed == 0 {
			t.Errorf("%s with a corrupted %s: correct=%v failed=%d, want a failure", c.workload, c.kind, out.Correct, out.Failed)
		}
	}
	if err := checkAppend(appendStatus{AppendedRows: 5, NewFDs: []string{"F0: a -> b"}}, 5); err == nil {
		t.Error("an append that admits a dependency passed its oracle")
	}
	if err := checkAppend(appendStatus{AppendedRows: 4}, 5); err == nil {
		t.Error("an append that lost a row passed its oracle")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	e2e := map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	b := newBench(config{})
	b.endMeasure(1, 1)
	b.set("setup_s", 1, "s", 1)
	b.set("report_p50_ms", 1, "ms", 1)
	got := b.reported()
	if len(got) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(e2e), len(got))
	}
	for n, m := range got {
		if e2e[n] != m.Unit {
			t.Errorf("end-to-end metric %s: unit %q in BENCHMARK.json, %q reported", n, e2e[n], m.Unit)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		if lm := layerMetrics[i]; m.Name != lm.name || m.Unit != lm.unit {
			t.Errorf("per-layer metric %d: %s %s in BENCHMARK.json, %s %s in the program", i, m.Name, m.Unit, lm.name, lm.unit)
		}
	}
}

// TestSelfTime checks the self-time rule: a span's duration minus the
// union of its children's intervals, clipped to it.
func TestSelfTime(t *testing.T) {
	r := newRecorder()
	root := r.add(span{Req: 1, Name: "op", Layer: "bench", StartUS: 0, EndUS: 100})
	r.add(span{Parent: root, Req: 1, Name: "a", Layer: "csvio", StartUS: 10, EndUS: 40})
	r.add(span{Parent: root, Req: 1, Name: "b", Layer: "csvio", StartUS: 30, EndUS: 50}) // overlaps a
	c := r.add(span{Parent: root, Req: 1, Name: "c", Layer: "core", StartUS: 90, EndUS: 120})
	r.add(span{Parent: c, Req: 1, Name: "d", Layer: "ind", StartUS: 95, EndUS: 100})
	got := r.selfTimes()[1]
	// bench: 100 - |[10,50] ∪ [90,100]| = 50; csvio: 30 + 20; core: 30 - 5; ind: 5.
	want := map[string]float64{"bench": 0.050, "csvio": 0.050, "core": 0.025, "ind": 0.005}
	for l, w := range want {
		if d := got[l] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", l, got[l], w)
		}
	}
}
