package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dbre"
)

// minReports is the fewest reports a cli-csv run measures, however
// short --seconds is.
const minReports = 3

// runCLI is the cli-csv workload: the CLI user's run, a fresh database
// per report built in process from the files on disk.
func runCLI(b *bench) error {
	ctx := context.Background()
	type state struct {
		in  *inputs
		ref string
		rep *dbre.Report
	}
	st, teardown, err := setup(b, func() (state, func(), error) {
		dir := filepath.Join(b.cfg.work, "inputs")
		teardown := func() { os.RemoveAll(dir) }
		ins, err := genCLI(b.cfg.seed, b.cfg.scale, dir)
		if err != nil {
			return state{}, teardown, err
		}
		in := ins[0]
		// The reference report: every measured report must equal it.
		text, rep, err := cliReport(ctx, b, in, nil)
		if err != nil {
			return state{}, teardown, err
		}
		return state{in: in, ref: stripVolatile(text), rep: rep}, teardown, nil
	})
	defer teardown()
	if err != nil {
		return err
	}
	fp, err := inputsFingerprint([]*inputs{st.in})
	if err != nil {
		return err
	}
	b.checkInputs(fp, []string{score(st.rep, st.in.truth)})
	st.rep = nil

	b.beginMeasure()
	deadline := b.measureStart.Add(time.Duration(b.cfg.seconds) * time.Second)
	var lat, traced, untraced []float64
	for i := 0; i < minReports || time.Now().Before(deadline); i++ {
		var o *opTrace
		if b.rec != nil && i%2 == 1 {
			o = b.rec.begin("report")
		}
		start := time.Now()
		text, _, err := cliReport(ctx, b, st.in, o)
		ms := since(start)
		o.end()
		if err == nil {
			err = equalOrDiff("report", stripVolatile(b.tamper("report", text)), st.ref)
		}
		b.op(err)
		lat = append(lat, ms)
		if o != nil {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
	}
	b.endMeasure(len(lat), len(lat))
	b.latency("report", lat)
	b.overhead(traced, untraced)
	b.recordSelfTimes()
	return nil
}

// cliReport builds a fresh database from the inputs and reverse-engineers
// it through the facade: LoadSQLFile, LoadCSVDirCtx,
// ScanProgramsDirContext, ReverseWithQContext and Report.Text. With o
// non-nil each call is a span, the program runs under a tracer whose
// trace is grafted under those spans, and the per-layer samples are
// recorded.
func cliReport(ctx context.Context, b *bench, in *inputs, o *opTrace) (string, *dbre.Report, error) {
	var tr *dbre.Tracer
	if o != nil {
		tr = dbre.NewTracer("report")
		ctx = dbre.WithTracer(ctx, tr)
	}
	var (
		db   *dbre.Database
		q    *dbre.JoinSet
		rep  *dbre.Report
		text string
		err  error
	)
	timed := func(name, layer string, fn func()) float64 {
		start := time.Now()
		o.call(name, layer, fn)
		return since(start)
	}
	loadMS := timed("sql.load", "sql", func() { db, err = dbre.LoadSQLFile(in.schema()) })
	if err != nil {
		return "", nil, err
	}
	alloc := allocCounter(o != nil)
	ingestMS := timed("csvio.ingest", "csvio", func() { _, err = dbre.LoadCSVDirCtx(ctx, db, in.data(), parallelism) })
	ingestMB := alloc()
	if err != nil {
		return "", nil, err
	}
	scanMS := timed("appscan.scan", "appscan", func() { q, _, err = dbre.ScanProgramsDirContext(ctx, db, in.programsDir()) })
	if err != nil {
		return "", nil, err
	}
	joins := q.Len()
	alloc = allocCounter(o != nil)
	reverseMS := timed("core.reverse", "core", func() { rep, err = dbre.ReverseWithQContext(ctx, db, q, options()) })
	reverseMB := alloc()
	if err != nil {
		return "", nil, err
	}
	renderMS := timed("core.render", "core", func() { text = rep.Text() })
	if o == nil {
		return text, rep, nil
	}
	tr.Finish()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return "", nil, err
	}
	t, err := parseTrace(buf.Bytes())
	if err != nil {
		return "", nil, err
	}
	o.graft(0, t, "")
	b.sample("sql.load_ms", loadMS)
	b.sample("csvio.ingest_ms", ingestMS)
	b.sample("csvio.rows_per_s", float64(in.tuples)/(ingestMS/1000))
	b.sample("csvio.alloc_mb", ingestMB)
	b.sample("appscan.scan_ms", scanMS)
	b.sample("appscan.joins", float64(joins))
	b.sample("core.reverse_ms", reverseMS)
	b.sample("core.reverse_alloc_mb", reverseMB)
	b.sample("core.render_ms", renderMS)
	b.programSamples(t)
	return text, rep, nil
}

// allocCounter returns a function reporting the MB the process allocated
// since the call; it reads nothing (and returns 0) when off, since
// reading the counters stops the world.
func allocCounter(on bool) func() float64 {
	if !on {
		return func() float64 { return 0 }
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	return func() float64 {
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc-start) / (1 << 20)
	}
}
