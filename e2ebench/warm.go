package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// appendsPerSecond sets serve-warm-rw's run length: the writer commits
// seconds × appendsPerSecond appends and the run ends with the last one,
// so the live dataset ends at the same size on every run.
const appendsPerSecond = 50

// writerThink is the writer's pause after each committed append. The
// writer is a closed loop with think time: a routine transaction feed, not
// a bulk load. Without it the writer takes a whole core, the reader's
// latency follows the contention between them rather than the serving
// path, and live grows tenfold within a run.
const writerThink = 17 * time.Millisecond

// deltaShare is the size of one append relative to its fact relation's
// generated size.
const deltaShare = 0.01

// warmState is serve-warm-rw's set-up: two resident datasets, the
// discovery-only reference report, the writer job and its clone rows.
type warmState struct {
	srv      *server
	programs map[string]string
	ref      string // discovery sections of the facade reference report
	writer   string // the long-lived incremental job on "live"
	facts    []factRows
	scores   []string
	fp       string
}

// factRows holds one fact relation's CSV header and data lines, the
// material of the writer's clone-row appends.
type factRows struct {
	rel    string
	header string
	lines  []string
	nextID int64
}

// runWarm is the serve-warm-rw workload: a reader repeatedly submits
// discovery-only jobs on the read-only resident dataset "ro" and fetches
// each report, while a writer appends clone rows to a long-lived
// incremental job on the resident dataset "live".
func runWarm(b *bench) error {
	ctx := context.Background()
	st, teardown, err := setup(b, func() (*warmState, func(), error) { return warmSetup(ctx, b) })
	defer teardown()
	if err != nil {
		return err
	}
	b.checkInputs(st.fp, st.scores)
	before, err := st.srv.stats()
	if err != nil {
		return err
	}
	// The shared caches count their delta refinements on the server's
	// tracer, not on the append's.
	refines := st.srv.srv.Tracer().CounterSnapshot()["delta-refines"]

	nAppends := b.cfg.seconds * appendsPerSecond
	var (
		wg                      sync.WaitGroup
		writerDone              = make(chan struct{})
		reads, traced, untraced []float64
		appends                 []float64
	)
	b.beginMeasure()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		appends = b.writer(st, nAppends)
	}()
	go func() {
		defer wg.Done()
		spec := jobSpec{Dataset: "ro", Programs: st.programs, Incremental: true, Parallelism: parallelism}
		for i := 0; ; i++ {
			select {
			case <-writerDone:
				return
			default:
			}
			ms, isTraced, err := b.servedJob(st.srv, spec, st.ref, i)
			b.op(err)
			if err != nil {
				continue
			}
			reads = append(reads, ms)
			if isTraced {
				traced = append(traced, ms)
			} else if b.rec != nil {
				untraced = append(untraced, ms)
			}
		}
	}()
	wg.Wait()
	b.endMeasure(len(reads), len(reads)+len(appends))
	b.latency("report", reads)
	b.latency("append", appends)
	b.overhead(traced, untraced)
	b.recordSelfTimes()

	after, err := st.srv.stats()
	if err != nil {
		return err
	}
	b.poolDelta(before, after)
	b.set("stats.delta_refines", float64(st.srv.srv.Tracer().CounterSnapshot()["delta-refines"]-refines), "count", len(appends))
	// The final state: the writer job's report must equal a fresh
	// discovery-only job's report on the grown dataset.
	b.op(b.checkFinal(st))
	return nil
}

// warmSetup generates the dataset, snapshots it twice ("ro", "live"),
// computes the reference report in process, starts and prewarms the
// server and submits the writer job.
func warmSetup(ctx context.Context, b *bench) (*warmState, func(), error) {
	root := filepath.Join(b.cfg.work, "datasets")
	inDir := filepath.Join(b.cfg.work, "inputs")
	st := &warmState{}
	teardown := func() {
		if st.srv != nil {
			st.srv.close()
		}
		os.RemoveAll(root)
		os.RemoveAll(inDir)
	}
	ins, err := genWarm(b.cfg.seed, b.cfg.scale, inDir)
	if err != nil {
		return st, teardown, err
	}
	in := ins[0]
	if st.fp, err = inputsFingerprint(ins); err != nil {
		return st, teardown, err
	}
	if st.programs, err = readPrograms(in.programsDir()); err != nil {
		return st, teardown, err
	}
	for _, name := range []string{"ro", "live"} {
		if err := snapshotDataset(ctx, in, filepath.Join(root, name)); err != nil {
			return st, teardown, err
		}
	}
	rep, err := b.referenceRun(ctx, filepath.Join(root, "ro"), st.programs)
	if err != nil {
		return st, teardown, err
	}
	st.ref = discoveryPart(stripVolatile(rep.Text()))
	st.scores = []string{score(rep, in.truth)}
	for f := 0; f < in.spec.Facts; f++ {
		fr, err := readFact(in, fmt.Sprintf("F%d", f))
		if err != nil {
			return st, teardown, err
		}
		st.facts = append(st.facts, fr)
	}
	if st.srv, err = startServer(root, 0); err != nil {
		return st, teardown, err
	}
	if _, err := st.srv.srv.Prewarm(ctx, []string{"ro", "live"}); err != nil {
		return st, teardown, err
	}
	w, err := st.srv.runJob(jobSpec{Dataset: "live", Programs: st.programs, Incremental: true, Parallelism: parallelism}, nil)
	if err != nil {
		return st, teardown, fmt.Errorf("writer job: %w", err)
	}
	if err := equalOrDiff("writer job's initial report", stripVolatile(w.report), st.ref); err != nil {
		return st, teardown, err
	}
	st.writer = w.id
	return st, teardown, nil
}

// readFact reads a fact relation's generated CSV file.
func readFact(in *inputs, rel string) (factRows, error) {
	data, err := os.ReadFile(in.csvPath(rel))
	if err != nil {
		return factRows{}, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		return factRows{}, fmt.Errorf("%s.csv has no rows", rel)
	}
	return factRows{rel: rel, header: lines[0], lines: lines[1:], nextID: int64(len(lines))}, nil
}

// delta builds one append: deltaShare of the relation's generated rows,
// cloned from existing rows (a sliding window over the file) with fresh
// key values. Every foreign-key and embedded-attribute combination
// already exists, so no dependency may change.
func (f *factRows) delta(round int) (string, int) {
	n := max(1, int(deltaShare*float64(len(f.lines))))
	var sb strings.Builder
	sb.WriteString(f.header)
	sb.WriteByte('\n')
	off := (round * n) % len(f.lines)
	for i := 0; i < n; i++ {
		line := f.lines[(off+i)%len(f.lines)]
		sb.WriteString(strconv.FormatInt(f.nextID, 10))
		sb.WriteString(line[strings.IndexByte(line, ','):])
		sb.WriteByte('\n')
		f.nextID++
	}
	return sb.String(), n
}

// writer commits n appends round-robin over the facts and returns their
// latencies. Each append must add exactly the rows sent and break or
// admit no dependency.
func (b *bench) writer(st *warmState, n int) []float64 {
	var lat []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			time.Sleep(writerThink)
		}
		f := &st.facts[i%len(st.facts)]
		csv, rows := f.delta(i / len(st.facts))
		var o *opTrace
		if b.rec != nil && i%2 == 1 {
			o = b.rec.begin("append")
		}
		start := time.Now()
		var as appendStatus
		var err error
		span := o.call("serve.append", "serve", func() { as, err = st.srv.appendRows(st.writer, f.rel, csv) })
		ms := since(start)
		o.end()
		if err == nil {
			err = checkAppend(as, rows)
		}
		b.op(err)
		if err != nil {
			continue
		}
		lat = append(lat, ms)
		if o != nil {
			b.appendSamples(st, o, span, as)
		}
	}
	return lat
}

// appendSamples records a traced append's per-layer numbers, reading the
// append's program trace (the writer job's trace after the append).
func (b *bench) appendSamples(st *warmState, o *opTrace, span int, as appendStatus) {
	t, err := st.srv.jobTrace(st.writer)
	if err != nil {
		b.op(fmt.Errorf("append trace: %w", err))
		return
	}
	o.graft(span, t, "serve")
	b.sample("serve.append_run_ms", float64(t.Root.DurationUS)/1000)
	b.sample("table.appended_rows", float64(as.AppendedRows))
	b.sample("fd.reused", float64(as.FD.Reused))
	b.sample("fd.delta_checked", float64(as.FD.DeltaChecked))
	b.sample("fd.refuted", float64(as.FD.Refuted))
	b.sample("ind.reused", float64(as.IND.Reused))
	b.sample("ind.recounted", float64(as.IND.Recounted))
}

// checkAppend is the writer's per-append oracle.
func checkAppend(as appendStatus, rows int) error {
	switch {
	case as.AppendedRows != rows:
		return fmt.Errorf("append committed %d rows, sent %d", as.AppendedRows, rows)
	case as.FD.Broken != 0 || len(as.BrokenFDs)+len(as.NewFDs)+len(as.BrokenINDs)+len(as.NewINDs) != 0:
		return fmt.Errorf("clone-row append changed dependencies: broken FDs %v, new FDs %v, broken INDs %v, new INDs %v",
			as.BrokenFDs, as.NewFDs, as.BrokenINDs, as.NewINDs)
	}
	return nil
}

// checkFinal compares the writer job's final report with a fresh
// discovery-only job's report on the grown "live" dataset.
func (b *bench) checkFinal(st *warmState) error {
	data, err := st.srv.do("GET", "/jobs/"+st.writer+"/report", nil, 200)
	if err != nil {
		return fmt.Errorf("writer report: %w", err)
	}
	fresh, err := st.srv.runJob(jobSpec{Dataset: "live", Programs: st.programs, Incremental: true, Parallelism: parallelism}, nil)
	if err != nil {
		return fmt.Errorf("fresh job on live: %w", err)
	}
	got := stripVolatile(b.tamper("final", string(data)))
	return equalOrDiff("writer job's final report", got, stripVolatile(fresh.report))
}
