// Targeted FD re-validation after a batch append. A new tuple can only
// *break* a functional dependency, never repair one that held — adding
// rows never removes a violating pair — so a previously-clean A → b
// needs only its delta rows checked: each appended row either lands in
// an existing group of A (then its b-value must match that group's
// established value, read off the group representative) or founds a new
// group (trivially clean). Previously-violated checks replay their
// refutation outright when the enforcement policy ignores support —
// violations are monotone non-decreasing under appends (each appended
// tuple raises its group's majority count by at most one while raising
// the non-NULL row count by exactly one), so a support that carries
// violations keeps carrying them — and are recomputed in full otherwise,
// because their exact violation counts — which a support-sensitive
// enforcement policy reads — change in ways the delta alone cannot
// reproduce.
package fd

import (
	"context"

	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// SupportMap is the per-(candidate-key, attribute) support table of one
// RHS-Discovery run — the warm state a delta re-validation starts from.
type SupportMap map[[2]string]expert.FDSupport

// DeltaStats summarizes how a delta re-validation classified its
// extension checks.
type DeltaStats struct {
	// Reused counts checks whose relation did not change: the previous
	// support is still exact and no kernel ran.
	Reused int
	// DeltaChecked counts previously-clean checks proven still clean by
	// scanning only the appended rows.
	DeltaChecked int
	// Refuted counts previously-violated checks whose refutation was
	// replayed without any kernel: appends can only add violations, so
	// under a support-insensitive enforcement policy
	// (expert.IsSupportInsensitive) the decision cannot change. The
	// carried support is the stale one — a certain lower bound, never
	// read by such a policy.
	Refuted int
	// Escalated counts checks recomputed by the full kernel: the
	// previous support already carried violations under a
	// support-sensitive enforcement policy, no previous support exists
	// (new relation or attribute), or a delta check found a fresh
	// violation.
	Escalated int
	// Broken counts the subset of Escalated where a previously-clean
	// check was dirtied by the delta — the re-escalations proper, whose
	// decisions go back through the expert's enforcement policy.
	Broken int
}

// CheckDelta proves a previously-clean FD lhs → rhs still clean by
// checking only rows [baseRows, len) against the group representatives,
// or reports dirty=true on the first fresh violation. The returned
// support is exact only when dirty=false: Rows is the non-NULL-lhs row
// count over the full grown extension and Violations is 0, which is
// bit-identical to what the full kernels return for a clean FD.
func CheckDelta(cache *stats.Cache, rel string, lhs []string, rhs string, baseRows int) (support expert.FDSupport, dirty bool, err error) {
	gx, _, nonNull, err := cache.GroupVector(rel, lhs)
	if err != nil {
		return expert.FDSupport{}, false, err
	}
	ga, _, _, err := cache.GroupVector(rel, []string{rhs})
	if err != nil {
		return expert.FDSupport{}, false, err
	}
	reps, err := cache.GroupReps(rel, lhs)
	if err != nil {
		return expert.FDSupport{}, false, err
	}
	// Old groups have old representatives (their b-value is the group's
	// established one — the FD held over the prefix); delta-founded
	// groups have their first delta row as representative, so intra-delta
	// splits are caught too. NULL b is one regular value (code -1), the
	// same convention as every full kernel.
	for i := baseRows; i < len(gx); i++ {
		g := gx[i]
		if g < 0 {
			continue
		}
		if ga[i] != ga[reps[g]] {
			return expert.FDSupport{}, true, nil
		}
	}
	return expert.FDSupport{Rows: nonNull, Violations: 0}, false, nil
}

// DiscoverRHSDeltaCtx replays RHS-Discovery over a grown database using
// the previous run's support table: checks over unchanged relations are
// reused outright, previously-clean checks are verified against the
// delta only, previously-violated checks replay their refutation for
// free when the oracle's enforcement policy is support-insensitive
// (appends only add violations), and everything else — fresh
// violations, violated checks under a support-sensitive policy,
// relations or attributes without history — escalates to the full
// kernel. The decision loop then runs unchanged over the
// refreshed supports, so results (FDs, hidden set, traces, expert
// consultation order) are bit-identical to a cold DiscoverRHSOptsCtx
// run on the same state. baseRows maps each relation to its row count
// at the previous run (absent means the relation is new). Requires
// o.Stats; o.Legacy is ignored on the delta path (escalations
// use the dense exact kernel, whose supports all variants share).
func DiscoverRHSDeltaCtx(ctx context.Context, db *table.Database, lhs, hidden []relation.Ref, oracle expert.Oracle, o Opts, prevSupports SupportMap, baseRows map[string]int) (*Result, SupportMap, DeltaStats, error) {
	var ds DeltaStats
	if o.Stats == nil {
		res, sup, err := DiscoverRHSSupportsCtx(ctx, db, lhs, hidden, oracle, o)
		return res, sup, ds, err
	}
	tr := obs.FromContext(ctx)
	_, psp := obs.StartSpan(ctx, "plan-delta")
	plan, err := planRHS(db, lhs, hidden)
	psp.End()
	if err != nil {
		return nil, nil, ds, err
	}

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
	keyOf := func(c chk) [2]string {
		return [2]string{plan.candidates[c.cand].Key(), c.attr}
	}
	supports := make(SupportMap, len(checks))
	results := make([]expert.FDSupport, len(checks))
	errs := make([]error, len(checks))
	kinds := make([]int8, len(checks)) // 0 reused, 1 delta-clean, 2 escalated, 3 broken, 4 refuted-replay
	insensitive := expert.IsSupportInsensitive(oracle)
	_, ksp := obs.StartSpan(ctx, "check-delta")
	stats.ForEach(len(checks), o.Workers, func(i int) {
		cand := plan.candidates[checks[i].cand]
		base, known := baseRows[cand.Rel]
		prev, have := prevSupports[keyOf(checks[i])]
		tab := db.MustTable(cand.Rel)
		if have && known && tab.Len() == base {
			results[i], kinds[i] = prev, 0
			return
		}
		// A previously-violated check stays violated under appends, so a
		// support-insensitive enforcement policy replays its refusal
		// without touching the extension at all. The stale support is
		// carried forward as a certain lower bound.
		if have && known && prev.Violations > 0 && base <= tab.Len() && insensitive {
			results[i], kinds[i] = prev, 4
			return
		}
		if have && known && prev.Violations == 0 && base <= tab.Len() {
			sup, dirty, err := CheckDelta(o.Stats, cand.Rel, cand.Attrs.Names(), checks[i].attr, base)
			if err != nil {
				errs[i] = err
				return
			}
			if !dirty {
				results[i], kinds[i] = sup, 1
				return
			}
			results[i], errs[i] = CheckStats(o.Stats, cand.Rel, cand.Attrs.Names(), checks[i].attr)
			kinds[i] = 3
			return
		}
		results[i], errs[i] = CheckStats(o.Stats, cand.Rel, cand.Attrs.Names(), checks[i].attr)
		kinds[i] = 2
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
	ksp.SetInt("reused", int64(ds.Reused))
	ksp.SetInt("delta-checked", int64(ds.DeltaChecked))
	ksp.SetInt("refuted", int64(ds.Refuted))
	ksp.SetInt("escalated", int64(ds.Escalated))
	ksp.End()
	tr.Add(obs.CtrFDChecks, int64(ds.DeltaChecked+ds.Escalated))
	tr.Add(obs.CtrReescalations, int64(ds.Broken))

	lookup := func(cand relation.Ref, b string) (expert.FDSupport, error) {
		return supports[[2]string{cand.Key(), b}], nil
	}
	_, dsp := obs.StartSpan(ctx, "decide-delta")
	res, err := decideRHSCtx(ctx, db, plan, oracle, lookup)
	dsp.End()
	if err != nil {
		return nil, nil, ds, err
	}
	return res, supports, ds, nil
}
