package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dbre"
	"dbre/internal/obs"
)

// pollInterval is the client's status-poll cadence while a job runs.
const pollInterval = time.Millisecond

// jobTTL is how long the server keeps finished jobs, shortened from the
// one-hour default: a discovery-only job keeps its warm state (and its
// pool pin) until the TTL, and the reader of serve-warm-rw finishes
// hundreds of them a second. Appends restart the writer job's TTL, so it
// survives a whole run.
const jobTTL = 2 * time.Second

// server is a job server in this process, reached over loopback HTTP with
// at most two client connections.
type server struct {
	srv  *dbre.Server
	hs   *http.Server
	base string
	cl   *http.Client
	done chan struct{}
}

// startServer starts a two-worker job server over the dataset root. budget
// is ServerConfig.MaxResidentBytes (0 = the default).
func startServer(root string, budget int64) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv: dbre.NewServer(dbre.ServerConfig{
			Workers: parallelism, DatasetRoot: root, MaxResidentBytes: budget, TTL: jobTTL,
		}),
		base: "http://" + ln.Addr().String(),
		cl:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		done: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the HTTP server and the job server and waits for both.
func (s *server) close() {
	s.cl.CloseIdleConnections()
	_ = s.hs.Close()
	<-s.done
	_ = s.srv.Close()
}

// httpError is a non-success HTTP status.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and reads the whole body; any status other than
// want is an *httpError.
func (s *server) do(method, path string, body any, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, &httpError{resp.StatusCode, string(bytes.TrimSpace(data))}
	}
	return data, nil
}

// jobSpec is the subset of the POST /jobs payload the benchmark sends.
type jobSpec struct {
	Dataset     string            `json:"dataset"`
	Programs    map[string]string `json:"programs"`
	Incremental bool              `json:"incremental,omitempty"`
	Parallelism int               `json:"parallelism"`
}

// jobStatus is the subset of the job status the client reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// jobRun is one submitted job, timed from POST /jobs until the report
// body has been read.
type jobRun struct {
	id      string
	report  string
	totalMS float64
	polls   int
	// submitMS and fetchMS time the submit request and the report
	// fetch; the polling until the job is done lies between them.
	submitMS, fetchMS float64
	// start, submitted, fetching and end delimit those steps.
	start, submitted, fetching, end time.Time
	waitSpan                        int // the traced wait span's id
}

// runJob submits spec, polls until the job is done and fetches its
// report. With o non-nil the three steps are recorded as spans.
func (s *server) runJob(spec jobSpec, o *opTrace) (jobRun, error) {
	var (
		r   jobRun
		st  jobStatus
		err error
	)
	start := time.Now()
	o.call("serve.submit", "serve", func() {
		var data []byte
		if data, err = s.do("POST", "/jobs", spec, http.StatusAccepted); err == nil {
			err = json.Unmarshal(data, &st)
		}
	})
	r.start, r.submitted = start, time.Now()
	r.submitMS = since(start)
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	r.id = st.ID
	r.waitSpan = o.call("serve.wait", "serve", func() {
		for st.State != "done" && err == nil {
			if st.State == "failed" || st.State == "cancelled" {
				err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
				return
			}
			time.Sleep(pollInterval)
			var data []byte
			r.polls++
			if data, err = s.do("GET", "/jobs/"+r.id, nil, http.StatusOK); err == nil {
				err = json.Unmarshal(data, &st)
			}
		}
	})
	if err != nil {
		return r, err
	}
	r.fetching = time.Now()
	o.call("serve.fetch", "serve", func() {
		var data []byte
		if data, err = s.do("GET", "/jobs/"+r.id+"/report", nil, http.StatusOK); err == nil {
			r.report = string(data)
		}
	})
	r.end = time.Now()
	r.fetchMS = float64(r.end.Sub(r.fetching).Nanoseconds()) / 1e6
	r.totalMS = float64(r.end.Sub(start).Nanoseconds()) / 1e6
	return r, err
}

// jobTrace fetches a job's program trace.
func (s *server) jobTrace(id string) (*obs.Trace, error) {
	data, err := s.do("GET", "/jobs/"+id+"/trace", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parseTrace(data)
}

// poolStats is the pool section of GET /stats.
type poolStats struct {
	Bytes           int64 `json:"bytes"`
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Evictions       int64 `json:"evictions"`
	SharedCacheHits int64 `json:"shared_cache_hits"`
}

func (s *server) stats() (poolStats, error) {
	var out struct {
		Pool poolStats `json:"pool"`
	}
	data, err := s.do("GET", "/stats", nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(data, &out)
	}
	return out.Pool, err
}

// appendStatus is the subset of POST /jobs/{id}/append's response the
// writer checks.
type appendStatus struct {
	AppendedRows int `json:"appended_rows"`
	FD           struct {
		Reused       int `json:"reused"`
		DeltaChecked int `json:"delta_checked"`
		Refuted      int `json:"refuted"`
		Broken       int `json:"broken"`
	} `json:"fd"`
	IND struct {
		Reused    int `json:"reused"`
		Recounted int `json:"recounted"`
		Redecided int `json:"redecided"`
	} `json:"ind"`
	BrokenFDs  []string `json:"broken_fds"`
	NewFDs     []string `json:"new_fds"`
	BrokenINDs []string `json:"broken_inds"`
	NewINDs    []string `json:"new_inds"`
}

func (s *server) appendRows(id, rel, csv string) (appendStatus, error) {
	var st appendStatus
	data, err := s.do("POST", "/jobs/"+id+"/append", map[string]string{"relation": rel, "csv": csv}, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// refused reports whether err is a refusal of the request (a 4xx or 5xx
// status), as opposed to a transport error or an oracle mismatch.
func refused(err error) bool {
	var he *httpError
	return errors.As(err, &he)
}

// snapshotDataset loads a generated dataset through the facade and
// persists it as the snapshot dataset dir, the form the server serves.
func snapshotDataset(ctx context.Context, in *inputs, dir string) error {
	db, err := dbre.LoadSQLFile(in.schema())
	if err != nil {
		return err
	}
	if _, err := dbre.LoadCSVDirCtx(ctx, db, in.data(), parallelism); err != nil {
		return err
	}
	return dbre.SnapshotContext(ctx, db, dir)
}

// referenceRun opens a snapshot dataset through the facade and runs the
// full one-shot pipeline over it with the programs a job would carry: the
// in-process reference each served report is compared with. It samples
// storage.open_ms.
func (b *bench) referenceRun(ctx context.Context, dir string, programs map[string]string) (*dbre.Report, error) {
	start := time.Now()
	db, info, err := dbre.OpenSnapshotContext(ctx, dir, dbre.SnapshotOptions{Preload: true})
	if err != nil {
		return nil, err
	}
	b.sample("storage.open_ms", since(start))
	info.Close()
	return dbre.ReverseContext(ctx, db, programs, options())
}

// options is the pipeline configuration every facade run uses: the
// paper's setting with the automatic expert, at the workloads'
// parallelism, as a job server runs a submission.
func options() dbre.Options {
	opts := dbre.DefaultOptions()
	opts.Parallelism = parallelism
	return opts
}

// servedJob runs one job of a served workload and checks its report
// against ref. In a traced run every odd job is traced: its steps become
// spans, its program trace is grafted under the wait, and its per-layer
// samples are recorded. It returns the job's latency.
func (b *bench) servedJob(srv *server, spec jobSpec, ref string, i int) (float64, bool, error) {
	var o *opTrace
	if b.rec != nil && i%2 == 1 {
		o = b.rec.begin("job")
	}
	r, err := srv.runJob(spec, o)
	o.end()
	if err != nil {
		if refused(err) {
			b.add("serve.rejected", 1)
		}
		return 0, false, err
	}
	if err := equalOrDiff("report of job on "+spec.Dataset, stripVolatile(b.tamper("report", r.report)), ref); err != nil {
		return 0, false, err
	}
	if o == nil {
		return r.totalMS, false, nil
	}
	t, err := srv.jobTrace(r.id)
	if err != nil {
		return 0, false, fmt.Errorf("job trace: %w", err)
	}
	o.graft(r.waitSpan, t, "serve")
	runMS := float64(t.Root.DurationUS) / 1000
	b.sample("serve.submit_ms", r.submitMS)
	b.sample("serve.fetch_ms", r.fetchMS)
	b.sample("serve.polls_per_job", float64(r.polls))
	b.sample("serve.job_run_ms", runMS)
	// The wait is the job's latency outside the submit request, the run
	// and the fetch: queue wait plus poll lag. The run may start before
	// the submit response arrives, so the three are overlapped as
	// intervals, not subtracted.
	whole := span{StartUS: r.start.UnixMicro(), EndUS: r.end.UnixMicro()}
	busy := covered(whole, []span{
		{StartUS: r.start.UnixMicro(), EndUS: r.submitted.UnixMicro()},
		{StartUS: t.Root.StartUS, EndUS: t.Root.StartUS + t.Root.DurationUS},
		{StartUS: r.fetching.UnixMicro(), EndUS: r.end.UnixMicro()},
	})
	b.sample("serve.wait_ms", float64(whole.EndUS-whole.StartUS-busy)/1000)
	if ms, ok := findSpan(t, "scan"); ok {
		b.sample("appscan.scan_ms", ms)
	}
	b.programSamples(t)
	return r.totalMS, true, nil
}

// poolDelta reports the pool's counters over the measured phase.
func (b *bench) poolDelta(before, after poolStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	b.set("serve.pool_hits", float64(hits), "count", 1)
	b.set("serve.pool_misses", float64(misses), "count", 1)
	b.set("serve.pool_evictions", float64(after.Evictions-before.Evictions), "count", 1)
	if hits+misses > 0 {
		b.set("serve.pool_hit_ratio", float64(hits)/float64(hits+misses), "ratio", int(hits+misses))
	}
	b.set("serve.pool_resident_mb", float64(after.Bytes)/(1<<20), "MB", 1)
	b.set("stats.shared_cache_hits", float64(after.SharedCacheHits-before.SharedCacheHits), "count", 1)
}
