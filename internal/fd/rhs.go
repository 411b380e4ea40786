package fd

import (
	"context"
	"fmt"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// Opts configures the extension-checking phase of RHS-Discovery. The
// zero value reproduces the reference algorithm: direct scans, serial.
type Opts struct {
	// Stats routes the A → b checks through the shared column-statistics
	// cache, so the hashed projection index on each candidate left-hand
	// side is built once and reused by every right-hand-side probe.
	Stats *stats.Cache
	// Workers fans the checks over a bounded worker pool
	// (stats.ForEach): 0 and 1 check serially, < 0 selects GOMAXPROCS.
	Workers int
	// Legacy forces the pre-overhaul grouped check kernel
	// (CheckStatsLegacy) instead of the dense joint-counting one. Only
	// meaningful with Stats set; results are identical — it exists for
	// the B12 ablation and differential tests.
	Legacy bool
}

// CandidateTrace records how one element of LHS ∪ H was processed by
// RHS-Discovery.
type CandidateTrace struct {
	Candidate relation.Ref
	// Pruned is the candidate RHS set after the key/not-null reduction.
	Pruned relation.AttrSet
	// Accepted lists the attributes that entered B (held or enforced).
	Accepted relation.AttrSet
	// Enforced lists attributes the expert forced despite violations.
	Enforced relation.AttrSet
	// Outcome is one of "fd", "hidden-object", "given-up",
	// "stays-hidden", "fd-rejected".
	Outcome string
}

// String renders the trace line.
func (c CandidateTrace) String() string {
	return fmt.Sprintf("%s: T=%s B=%s -> %s", c.Candidate, c.Pruned, c.Accepted, c.Outcome)
}

// Result is the output of RHS-Discovery.
type Result struct {
	FDs []deps.FD
	// Hidden is the final set H of hidden objects.
	Hidden []relation.Ref
	Traces []CandidateTrace
	// ExtensionChecks counts A → b tests against the extension, the work
	// measure compared with the exhaustive baseline.
	ExtensionChecks int
}

// DiscoverRHSCtx runs the paper's RHS-Discovery algorithm. Inputs are
// the database (for the extension and the catalog's keys and NOT
// NULLs), the candidate left-hand sides LHS and the hidden-object seeds
// H produced by LHS-Discovery, and the expert. Candidates are processed
// in canonical order so runs are deterministic.
//
// The A → b extension checks are pure reads, independent of every
// expert decision, so they run ahead of the sequential decision loop
// (through the statistics cache and/or a worker pool per o) without
// changing outcomes, traces, counters or the order of expert
// consultations. The returned support table is what the decisions were
// made from; a later pass re-validates against it.
//
// prev and baseRows are the history of a previous pass over the same,
// since grown, database: its support table and each relation's row
// count when it ran (absent means the relation is new). A nil prev is a
// cold run. History is read only when o.Stats is set (see delta.go):
// checks over unchanged relations are reused outright,
// previously-clean checks are verified against the appended rows only,
// previously-violated checks replay their refutation when the oracle's
// enforcement policy is support-insensitive, and everything else —
// fresh violations, violated checks under a support-sensitive policy,
// checks without history — runs the full kernel. The decision loop is
// the same either way, so a pass with history is bit-identical to a
// cold run on the same state.
//
// When a tracer is installed (obs.NewContext), the plan/check/decide
// stages become child spans (suffixed "-delta" when history is read),
// and the fd-checks, fd-rhs-pruned and re-escalation counters are
// published. Untraced contexts cost nothing (nil-span no-ops).
func DiscoverRHSCtx(ctx context.Context, db *table.Database, lhs, hidden []relation.Ref, oracle expert.Oracle, o Opts, prev SupportMap, baseRows map[string]int) (*Result, SupportMap, DeltaStats, error) {
	var ds DeltaStats
	if oracle == nil {
		oracle = expert.NewAuto()
	}
	if o.Stats == nil {
		prev = nil
	}
	spanName := func(name string) string {
		if prev != nil {
			return name + "-delta"
		}
		return name
	}
	tr := obs.FromContext(ctx)
	_, psp := obs.StartSpan(ctx, spanName("plan"))
	plan, err := planRHS(db, lhs, hidden)
	if err != nil {
		psp.End()
		return nil, nil, ds, err
	}
	psp.SetInt("candidates", int64(len(plan.candidates)))
	psp.End()
	// fd-rhs-pruned: attributes the key/not-null reduction removed from
	// each candidate's schema before any extension check ran.
	var prunedAway int64
	for i, cand := range plan.candidates {
		if schema, ok := db.Catalog().Get(cand.Rel); ok {
			full := schema.AttrSet().Len() - cand.Attrs.Len()
			prunedAway += int64(full - plan.pruned[i].Len())
		}
	}
	tr.Add(obs.CtrRHSPruned, prunedAway)

	type chk struct {
		cand int
		attr string
	}
	var checks []chk
	for i := range plan.candidates {
		for _, b := range plan.pruned[i].Names() {
			checks = append(checks, chk{i, b})
		}
	}
	supports := make(SupportMap, len(checks))
	keyOf := func(c chk) [2]string {
		return [2]string{plan.candidates[c.cand].Key(), c.attr}
	}
	results := make([]expert.FDSupport, len(checks))
	errs := make([]error, len(checks))
	kinds := make([]int8, len(checks)) // 0 reused, 1 delta-clean, 2 full, 3 broken, 4 refuted-replay
	insensitive := expert.IsSupportInsensitive(oracle)
	_, ksp := obs.StartSpan(ctx, spanName("check"))
	stats.ForEach(len(checks), o.Workers, func(i int) {
		cand, b := plan.candidates[checks[i].cand], checks[i].attr
		old, have := prev[keyOf(checks[i])]
		base, known := baseRows[cand.Rel]
		rows := db.MustTable(cand.Rel).Len()
		have = have && known && base <= rows
		switch {
		case have && rows == base:
			results[i], kinds[i] = old, 0
			return
		// A previously-violated check stays violated under appends, so a
		// support-insensitive enforcement policy replays its refusal
		// without touching the extension at all. The stale support is
		// carried forward as a certain lower bound.
		case have && old.Violations > 0 && insensitive:
			results[i], kinds[i] = old, 4
			return
		case have && old.Violations == 0:
			sup, dirty, err := CheckDelta(o.Stats, cand.Rel, cand.Attrs.Names(), b, base)
			if err != nil || !dirty {
				results[i], kinds[i], errs[i] = sup, 1, err
				return
			}
			kinds[i] = 3
		default:
			kinds[i] = 2
		}
		results[i], errs[i] = checkFull(db, o, cand, b)
	})
	for i, err := range errs {
		if err != nil {
			ksp.End()
			return nil, nil, ds, err
		}
		supports[keyOf(checks[i])] = results[i]
		switch kinds[i] {
		case 0:
			ds.Reused++
		case 1:
			ds.DeltaChecked++
		case 3:
			ds.Escalated++
			ds.Broken++
		case 4:
			ds.Refuted++
		default:
			ds.Escalated++
		}
	}
	ksp.SetInt("checks", int64(len(checks)))
	ksp.SetInt("workers", int64(o.Workers))
	if prev != nil {
		ksp.SetInt("reused", int64(ds.Reused))
		ksp.SetInt("delta-checked", int64(ds.DeltaChecked))
		ksp.SetInt("refuted", int64(ds.Refuted))
		ksp.SetInt("escalated", int64(ds.Escalated))
	}
	ksp.End()
	tr.Add(obs.CtrFDChecks, int64(ds.DeltaChecked+ds.Escalated))
	tr.Add(obs.CtrReescalations, int64(ds.Broken))

	_, dsp := obs.StartSpan(ctx, spanName("decide"))
	res, err := decideRHSCtx(ctx, db, plan, oracle, supports)
	if err == nil {
		dsp.SetInt("fds", int64(len(res.FDs)))
		dsp.SetInt("hidden", int64(len(res.Hidden)))
	}
	dsp.End()
	if err != nil {
		return nil, nil, ds, err
	}
	return res, supports, ds, nil
}

// checkFull runs the full A → b kernel: the uncached reference Check
// without a cache, the grouped CheckStatsLegacy when o.Legacy asks for
// it, and the dense joint-counting CheckStats otherwise.
func checkFull(db *table.Database, o Opts, cand relation.Ref, b string) (expert.FDSupport, error) {
	switch {
	case o.Stats == nil:
		return Check(db.MustTable(cand.Rel), cand.Attrs.Names(), b)
	case o.Legacy:
		return CheckStatsLegacy(o.Stats, cand.Rel, cand.Attrs.Names(), b)
	default:
		return CheckStats(o.Stats, cand.Rel, cand.Attrs.Names(), b)
	}
}

// rhsPlan is the deterministic candidate schedule of one run.
type rhsPlan struct {
	candidates []relation.Ref
	pruned     []relation.AttrSet // T per candidate
	seen       map[string]bool
	inHidden   map[string]bool
	hidden     []relation.Ref
}

// planRHS enumerates LHS ∪ H in canonical order and computes each
// candidate's pruned right-hand-side set T from the catalog. It reads
// only schema metadata, so it can run ahead of any extension check.
func planRHS(db *table.Database, lhs, hidden []relation.Ref) (*rhsPlan, error) {
	plan := &rhsPlan{
		seen:     make(map[string]bool),
		inHidden: make(map[string]bool, len(hidden)),
		hidden:   hidden,
	}
	for _, h := range hidden {
		plan.inHidden[h.Key()] = true
	}
	// LHS ∪ H, deduplicated, in canonical order.
	for _, r := range append(append([]relation.Ref{}, lhs...), hidden...) {
		if !plan.seen[r.Key()] {
			plan.seen[r.Key()] = true
			plan.candidates = append(plan.candidates, r)
		}
	}
	relation.SortRefs(plan.candidates)
	for _, cand := range plan.candidates {
		schema, ok := db.Catalog().Get(cand.Rel)
		if !ok {
			return nil, fmt.Errorf("fd: unknown relation %q", cand.Rel)
		}
		key, _ := schema.PrimaryKey()
		notNull := schema.NotNullSet()
		// T = X_i - A - K_i; if A ∉ N, also remove N ∩ X_i.
		t := schema.AttrSet().Minus(cand.Attrs).Minus(key)
		if !notNull.ContainsAll(cand.Attrs) {
			t = t.Minus(notNull)
		}
		plan.pruned = append(plan.pruned, t)
	}
	return plan, nil
}

// decideRHSCtx replays the algorithm's decision branches over the
// planned candidates, reading each A → b support from the precomputed
// table. A cancelled context stops the loop between candidates, so a
// cancelled run performs at most one more candidate's expert dialogue
// (which a ContextAware oracle aborts immediately anyway).
func decideRHSCtx(ctx context.Context, db *table.Database, plan *rhsPlan, oracle expert.Oracle, supports SupportMap) (*Result, error) {
	res := &Result{}
	inHidden := plan.inHidden
	for ci, cand := range plan.candidates {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fd: cancelled after %d of %d candidates: %w", ci, len(plan.candidates), err)
		}
		tab := db.MustTable(cand.Rel)
		t := plan.pruned[ci]
		trace := CandidateTrace{Candidate: cand, Pruned: t}
		var accepted relation.AttrSet
		for _, b := range t.Names() {
			support := supports[[2]string{cand.Key(), b}]
			res.ExtensionChecks++
			switch {
			case support.Holds():
				accepted = accepted.Add(b) // branch (i)
			case oracle.EnforceFD(cand.Rel, cand.Attrs, b, support):
				accepted = accepted.Add(b) // branch (ii)
				trace.Enforced = trace.Enforced.Add(b)
			}
		}
		trace.Accepted = accepted

		hiddenKey := cand.Key()
		if !accepted.IsEmpty() {
			fd := deps.NewFD(cand.Rel, cand.Attrs, accepted)
			support := expert.FDSupport{Rows: tab.Len()}
			if oracle.ValidateFD(fd, support) { // expert validation
				res.FDs = append(res.FDs, fd)
				if inHidden[hiddenKey] {
					inHidden[hiddenKey] = false // now conceptualized in F
				}
				trace.Outcome = "fd"
			} else {
				trace.Outcome = "fd-rejected"
			}
			res.Traces = append(res.Traces, trace)
			continue
		}
		// Empty right-hand side.
		switch {
		case inHidden[hiddenKey]:
			trace.Outcome = "stays-hidden" // already a hidden object
		case oracle.ConceptualizeHidden(cand):
			inHidden[hiddenKey] = true // branch (iv)
			trace.Outcome = "hidden-object"
		default:
			trace.Outcome = "given-up" // branch (v)
		}
		res.Traces = append(res.Traces, trace)
	}

	// Materialize the final H in canonical order.
	for _, cand := range plan.candidates {
		if inHidden[cand.Key()] {
			res.Hidden = append(res.Hidden, cand)
		}
	}
	// Hidden seeds never visited as candidates (defensive; LHS-Discovery
	// always lists them) survive too.
	for _, h := range plan.hidden {
		if inHidden[h.Key()] && !plan.seen[h.Key()] {
			res.Hidden = append(res.Hidden, h)
		}
	}
	relation.SortRefs(res.Hidden)
	deps.SortFDs(res.FDs)
	return res, nil
}
