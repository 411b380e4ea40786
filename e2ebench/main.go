// Command e2ebench is the repository's end-to-end, layer-attributed
// benchmark. It generates a seeded workload with the internal workload
// generator, writes it to disk as DDL, CSV, programs and snapshots, and
// drives the program only from outside: in process through the dbre
// facade, and over the job server's HTTP API. See README.md for the
// workloads, the metric catalogue and the oracles.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash e2ebench/run.sh --workload cli-csv --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --spread out1.txt out2.txt ...   # quartiles across runs
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print
// every metric by name with its unit and sample count. The exit code is
// non-zero when any oracle fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    scale
	// work is the scratch directory for generated inputs, snapshots and
	// the trace file; it is emptied before and after the run.
	work string
	// tamper, when set, rewrites an artifact before its oracle sees it.
	// Only the self-test sets it, to prove a wrong artifact is counted
	// as a failure.
	tamper func(kind, text string) string
}

// output is the result line, the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", pins.DefaultSeed, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, self times and tracing overhead")
	tiny := fs.Bool("tiny", false, "tiny input sizes (self-test scale)")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	doSpread := fs.Bool("spread", false, "read result lines from the named files and print each metric's median and quartiles")
	pinFile := fs.String("pin", "", "record the seed's input fingerprint and ground-truth scores into this pins file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doSpread {
		if err := printSpread(stdout, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work}
	if *tiny {
		cfg.scale = tinyScale
	}
	if *pinFile != "" {
		if err := pinSeed(cfg, wl, *pinFile); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	b, err := runWorkload(cfg, wl)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	out := b.output()
	b.printHuman(stdout)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		for _, f := range b.failures {
			fmt.Fprintln(stderr, "e2ebench: FAIL:", f)
		}
		return 1
	}
	return 0
}

// runWorkload prepares the scratch directory, runs one workload and
// writes the traced run's spans out.
func runWorkload(cfg config, wl workloadDef) (*bench, error) {
	cfg.work = filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, cfg.seed))
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	b := newBench(cfg)
	if err := b.checkCanary(wl); err != nil {
		return nil, err
	}
	if err := wl.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if b.rec != nil {
		dir := filepath.Join(filepath.Dir(filepath.Dir(cfg.work)), "traces")
		if err := b.rec.writeFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// printHuman prints every metric of the run by name, with its unit and
// the number of samples behind it.
func (b *bench) printHuman(w io.Writer) {
	mode := "end-to-end"
	if b.cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "workload %s seed %d, %d s, %s metrics\n", b.cfg.workload, b.cfg.seed, b.cfg.seconds, mode)
	for _, line := range b.notes {
		fmt.Fprintf(w, "  note: %s\n", line)
	}
	ms := b.reported()
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		kind := fmt.Sprintf("n=%d", m.n)
		if m.count {
			kind = "count"
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-6s %s\n", n, m.Value, m.Unit, kind)
	}
	ratio := 0.0
	if b.attempted > 0 {
		ratio = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.4f %-6s (%d of %d operations)\n", "failed_ratio", ratio, "ratio", b.failed, b.attempted)
}

// output assembles the result line.
func (b *bench) output() output {
	return output{
		Correct:   b.failed == 0 && len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.reported(),
	}
}

// printSpread reads result lines (the last line of each file) and prints
// every metric's median, quartiles and spread across the runs.
func printSpread(w io.Writer, files []string) error {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var out output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		for n, m := range out.Metrics {
			vals[n] = append(vals[n], m.Value)
			units[n] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %6s %12s %12s %12s %8s\n", "metric", "runs", "q1", "median", "q3", "spread")
	for _, n := range names {
		q1, q2, q3 := quartiles(vals[n])
		fmt.Fprintf(w, "%-28s %6d %12.4f %12.4f %12.4f %7.2f%% %s\n", n, len(vals[n]), q1, q2, q3, 100*spread(vals[n]), units[n])
	}
	return nil
}

// since returns the elapsed milliseconds since t.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
