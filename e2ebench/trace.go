package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dbre/internal/obs"
)

// span is one timed interval of a traced operation: a call the benchmark
// made into the program, or a span of the program's own trace grafted
// under that call. Times are Unix microseconds, the program traces' unit.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for an operation's root
	Req     int    `json:"req"`    // the operation (request) id
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// recorder keeps the traced run's spans in memory; writeFile saves them
// when the run ends. Safe for concurrent clients.
type recorder struct {
	mu    sync.Mutex
	spans []span
	reqs  int
}

func newRecorder() *recorder { return &recorder{} }

// opTrace is the span context of one traced operation. A nil *opTrace
// (an untraced operation) records nothing.
type opTrace struct {
	rec  *recorder
	req  int
	root int
}

// begin opens a traced operation with a root span of the given name.
func (r *recorder) begin(name string) *opTrace {
	r.mu.Lock()
	r.reqs++
	req := r.reqs
	r.mu.Unlock()
	o := &opTrace{rec: r, req: req}
	o.root = r.add(span{Req: req, Name: name, Layer: "bench", StartUS: time.Now().UnixMicro()})
	return o
}

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) setEnd(id int, endUS int64) {
	r.mu.Lock()
	r.spans[id-1].EndUS = endUS
	r.mu.Unlock()
}

// end closes the operation's root span.
func (o *opTrace) end() {
	if o != nil {
		o.rec.setEnd(o.root, time.Now().UnixMicro())
	}
}

// call times fn as a child span of the operation's root and returns the
// new span's id (0 when untraced).
func (o *opTrace) call(name, layer string, fn func()) int {
	if o == nil {
		fn()
		return 0
	}
	id := o.rec.add(span{Parent: o.root, Req: o.req, Name: name, Layer: layer, StartUS: time.Now().UnixMicro()})
	fn()
	o.rec.setEnd(id, time.Now().UnixMicro())
	return id
}

// graft attaches a program trace under the operation. Each top-level
// program span goes under the benchmark span whose interval contains it
// (the call that produced it), or under parent when given.
func (o *opTrace) graft(parent int, t *obs.Trace, layer string) {
	if o == nil || t == nil || t.Root == nil {
		return
	}
	if parent != 0 {
		o.graftSpan(parent, t.Root, layer)
		return
	}
	for _, c := range t.Root.Children {
		o.graftSpan(o.container(c), c, "")
	}
}

// container returns the innermost benchmark call span of this operation
// containing the program span's interval, or the operation's root.
func (o *opTrace) container(s *obs.SpanRecord) int {
	o.rec.mu.Lock()
	defer o.rec.mu.Unlock()
	best, bestLen := o.root, int64(-1)
	for _, c := range o.rec.spans {
		if c.Req != o.req || c.Parent != o.root {
			continue
		}
		if c.StartUS <= s.StartUS && s.StartUS+s.DurationUS <= c.EndUS {
			if l := c.EndUS - c.StartUS; bestLen < 0 || l < bestLen {
				best, bestLen = c.ID, l
			}
		}
	}
	return best
}

func (o *opTrace) graftSpan(parent int, s *obs.SpanRecord, layer string) {
	if l := programLayer(s.Name); l != "" {
		layer = l
	}
	if layer == "" {
		o.rec.mu.Lock()
		layer = o.rec.spans[parent-1].Layer
		o.rec.mu.Unlock()
	}
	id := o.rec.add(span{Parent: parent, Req: o.req, Name: s.Name, Layer: layer,
		StartUS: s.StartUS, EndUS: s.StartUS + s.DurationUS})
	for _, c := range s.Children {
		o.graftSpan(id, c, layer)
	}
}

// programLayer maps a program span name to the module it runs in; ""
// means the span belongs to its parent's module.
func programLayer(name string) string {
	switch {
	case strings.HasPrefix(name, "ingest:"), name == "load-dir", name == "store-dir":
		return "csvio"
	case name == "scan", name == "scan-file":
		return "appscan"
	case name == "constraints", name == "infer-keys":
		return "core"
	case name == "ind-discovery":
		return "ind"
	case name == "rhs-discovery":
		return "fd"
	case name == "lhs-discovery", name == "restruct":
		return "restruct"
	case name == "translate":
		return "eer"
	case name == "open-snapshot", name == "snapshot":
		return "storage"
	}
	return ""
}

// selfTimes returns, per operation, each layer's self time in
// milliseconds: every span's duration minus the part of it its children
// cover, summed by layer.
func (r *recorder) selfTimes() map[int]map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int]map[string]float64{}
	for _, s := range r.spans {
		if s.EndUS < s.StartUS {
			continue // never ended
		}
		self := s.EndUS - s.StartUS - covered(s, children[s.ID])
		if out[s.Req] == nil {
			out[s.Req] = map[string]float64{}
		}
		out[s.Req][s.Layer] += float64(self) / 1000
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, cs []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(cs))
	for _, c := range cs {
		a, b := max(c.StartUS, p.StartUS), min(c.EndUS, p.EndUS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeFile saves every recorded span as JSON.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// parseTrace decodes a program trace file (Tracer.WriteJSON or GET
// /jobs/{id}/trace).
func parseTrace(data []byte) (*obs.Trace, error) {
	var t obs.Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// findSpan returns the duration in ms of the first span with the given
// name in the program trace (depth-first), and whether it exists.
func findSpan(t *obs.Trace, name string) (float64, bool) {
	if t == nil || t.Root == nil {
		return 0, false
	}
	var walk func(s *obs.SpanRecord) (float64, bool)
	walk = func(s *obs.SpanRecord) (float64, bool) {
		if s.Name == name {
			return float64(s.DurationUS) / 1000, true
		}
		for _, c := range s.Children {
			if d, ok := walk(c); ok {
				return d, true
			}
		}
		return 0, false
	}
	return walk(t.Root)
}

// recordSelfTimes reports each layer's self time as its mean per traced
// operation: the layers' values add up to the mean operation's traced
// time, whatever mix of operations a workload runs.
func (b *bench) recordSelfTimes() {
	if b.rec == nil {
		return
	}
	perOp := b.rec.selfTimes()
	for _, l := range []string{"sql", "csvio", "storage", "appscan", "ind", "fd", "restruct", "eer", "core", "serve", "bench"} {
		total := 0.0
		for _, per := range perOp {
			total += per[l]
		}
		if len(perOp) > 0 {
			b.set("self."+l+"_ms", total/float64(len(perOp)), "ms", len(perOp))
		}
	}
}

// programSamples records the per-layer numbers read from one program
// trace: phase span durations and counters.
func (b *bench) programSamples(t *obs.Trace) {
	spans := map[string]string{
		"restruct":       "restruct.restruct_ms",
		"fd-splits":      "restruct.fd_splits_ms",
		"hidden-objects": "restruct.hidden_objects_ms",
		"lhs-discovery":  "restruct.lhs_ms",
		"translate":      "eer.translate_ms",
		"ind-discovery":  "ind.discovery_ms",
		"rhs-discovery":  "fd.rhs_ms",
		"check":          "fd.check_ms",
	}
	for span, name := range spans {
		if ms, ok := findSpan(t, span); ok {
			b.sample(name, ms)
		}
	}
	counters := map[string]string{
		"ingest-chunks":       "table.ingest_chunks",
		"ingest-merge-remaps": "table.merge_remaps",
		"inds-tested":         "ind.inds_tested",
		"fd-checks":           "fd.checks",
		"stats-cache-hits":    "stats.cache_hits",
		"stats-cache-misses":  "stats.cache_misses",
		"rows-scanned":        "stats.rows_scanned",
	}
	for ctr, name := range counters {
		b.sample(name, float64(t.Counters[ctr]))
	}
	if h, m := t.Counters["stats-cache-hits"], t.Counters["stats-cache-misses"]; h+m > 0 {
		b.sample("stats.hit_ratio", float64(h)/float64(h+m))
	}
}
