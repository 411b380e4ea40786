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

// DiscoverRHS runs the paper's RHS-Discovery algorithm. Inputs are the
// database (for the extension and the catalog's keys and NOT NULLs), the
// candidate left-hand sides LHS and the hidden-object seeds H produced by
// LHS-Discovery, and the expert. Candidates are processed in canonical
// order so runs are deterministic.
//
// DiscoverRHS is the uncached, serial reference implementation; the
// differential harness compares DiscoverRHSOptsCtx against it.
func DiscoverRHS(db *table.Database, lhs, hidden []relation.Ref, oracle expert.Oracle) (*Result, error) {
	plan, err := planRHS(db, lhs, hidden)
	if err != nil {
		return nil, err
	}
	lookup := func(cand relation.Ref, b string) (expert.FDSupport, error) {
		return Check(db.MustTable(cand.Rel), cand.Attrs.Names(), b)
	}
	return decideRHS(db, plan, oracle, lookup)
}

// DiscoverRHSOptsCtx runs RHS-Discovery with the A → b extension
// checks precomputed through the statistics cache and/or a worker pool.
// The checks are pure reads and independent of every expert decision,
// so hoisting them ahead of the sequential decision loop preserves the
// algorithm's outcomes, traces, counters and the exact order of expert
// consultations. When a tracer is installed (obs.NewContext), the
// plan/check/decide stages become child spans, and the fd-checks and
// fd-rhs-pruned counters are published. Untraced contexts cost nothing
// (nil-span no-ops).
func DiscoverRHSOptsCtx(ctx context.Context, db *table.Database, lhs, hidden []relation.Ref, oracle expert.Oracle, o Opts) (*Result, error) {
	res, _, err := DiscoverRHSSupportsCtx(ctx, db, lhs, hidden, oracle, o)
	return res, err
}

// DiscoverRHSSupportsCtx is DiscoverRHSOptsCtx additionally returning
// the per-(candidate, attribute) support table the decisions were made
// from. The incremental re-validation path (delta.go) retains it as the
// warm state a later delta run re-checks against.
func DiscoverRHSSupportsCtx(ctx context.Context, db *table.Database, lhs, hidden []relation.Ref, oracle expert.Oracle, o Opts) (*Result, SupportMap, error) {
	tr := obs.FromContext(ctx)
	_, psp := obs.StartSpan(ctx, "plan")
	plan, err := planRHS(db, lhs, hidden)
	if err != nil {
		psp.End()
		return nil, nil, err
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
	_, ksp := obs.StartSpan(ctx, "check")
	stats.ForEach(len(checks), o.Workers, func(i int) {
		cand := plan.candidates[checks[i].cand]
		if o.Stats != nil {
			if o.Legacy {
				results[i], errs[i] = CheckStatsLegacy(o.Stats, cand.Rel, cand.Attrs.Names(), checks[i].attr)
			} else {
				results[i], errs[i] = CheckStats(o.Stats, cand.Rel, cand.Attrs.Names(), checks[i].attr)
			}
			return
		}
		results[i], errs[i] = Check(db.MustTable(cand.Rel), cand.Attrs.Names(), checks[i].attr)
	})
	ksp.SetInt("checks", int64(len(checks)))
	ksp.SetInt("workers", int64(o.Workers))
	ksp.End()
	tr.Add(obs.CtrFDChecks, int64(len(checks)))
	for i, err := range errs {
		if err != nil {
			return nil, nil, err
		}
		supports[keyOf(checks[i])] = results[i]
	}
	lookup := func(cand relation.Ref, b string) (expert.FDSupport, error) {
		return supports[[2]string{cand.Key(), b}], nil
	}
	_, dsp := obs.StartSpan(ctx, "decide")
	res, err := decideRHSCtx(ctx, db, plan, oracle, lookup)
	if err == nil {
		dsp.SetInt("fds", int64(len(res.FDs)))
		dsp.SetInt("hidden", int64(len(res.Hidden)))
	}
	dsp.End()
	if err != nil {
		return nil, nil, err
	}
	return res, supports, nil
}

// rhsPlan is the deterministic candidate schedule both variants share.
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

// decideRHS replays the algorithm's decision branches over the planned
// candidates, obtaining each A → b support from lookup (a direct scan in
// the reference, a precomputed table in the cached/parallel variant).
func decideRHS(db *table.Database, plan *rhsPlan, oracle expert.Oracle, lookup func(relation.Ref, string) (expert.FDSupport, error)) (*Result, error) {
	return decideRHSCtx(context.Background(), db, plan, oracle, lookup)
}

// decideRHSCtx is decideRHS observing cancellation: a cancelled context
// stops the loop between candidates, so a cancelled run performs at most
// one more candidate's expert dialogue (which a ContextAware oracle
// aborts immediately anyway).
func decideRHSCtx(ctx context.Context, db *table.Database, plan *rhsPlan, oracle expert.Oracle, lookup func(relation.Ref, string) (expert.FDSupport, error)) (*Result, error) {
	if oracle == nil {
		oracle = expert.NewAuto()
	}
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
			support, err := lookup(cand, b)
			if err != nil {
				return nil, err
			}
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
