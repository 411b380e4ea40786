package ind

import (
	"context"
	"fmt"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// Opts configures the counting phase of IND-Discovery. The zero value
// reproduces the reference algorithm: direct extension scans, serial.
type Opts struct {
	// Stats routes every count-distinct/join query through the shared
	// column-statistics cache, so projections scanned once are reused
	// across joins (N_k of a side appearing in several joins, N_kl
	// against the sets already built for N_k/N_l) and across later
	// pipeline phases. nil scans the extension directly.
	Stats *stats.Cache
	// Workers fans the counting phase over a bounded worker pool
	// (stats.ForEach): 0 and 1 count serially, < 0 selects GOMAXPROCS.
	Workers int
}

// DiscoverOptsCtx runs IND-Discovery with the given counting
// configuration. Counting runs first (cached and/or parallel per o),
// then the decision phase — branching, expert consultation, NEI
// conceptualization (which mutates the database) — replays the
// algorithm's branches sequentially in canonical join order, so
// outcomes, elicited INDs and the expert dialogue are identical to the
// serial reference Discover; the differential harness asserts exactly
// this. When a tracer is installed (obs.NewContext), the counting and
// decision stages become child spans, and the joins-tested /
// INDs-accepted / NEI-escalation / extension-query counters are
// published. Untraced contexts cost nothing (nil-span no-ops).
func DiscoverOptsCtx(ctx context.Context, db *table.Database, q *deps.JoinSet, oracle expert.Oracle, o Opts) (*Result, error) {
	if oracle == nil {
		oracle = expert.NewAuto()
	}
	tr := obs.FromContext(ctx)
	joins := q.Sorted()
	results := make([]joinCounts, len(joins))
	_, csp := obs.StartSpan(ctx, "count")
	stats.ForEach(len(joins), o.Workers, func(i int) {
		results[i] = countJoinOpts(db, joins[i], o.Stats)
	})
	csp.SetInt("joins", int64(len(joins)))
	csp.SetInt("workers", int64(o.Workers))
	csp.End()

	_, dsp := obs.StartSpan(ctx, "decide")
	res := &Result{INDs: deps.NewINDSet()}
	for i, join := range joins {
		// A cancelled run stops between joins: the current expert
		// consultation (which a ContextAware oracle already aborts on
		// cancellation) is the last work performed.
		if err := ctx.Err(); err != nil {
			dsp.End()
			return res, fmt.Errorf("ind: cancelled after %d of %d joins: %w", i, len(joins), err)
		}
		c := results[i]
		if c.err != nil {
			res.Outcomes = append(res.Outcomes, Outcome{Join: join, Case: CaseError, Err: c.err})
			continue
		}
		res.ExtensionQueries += 3
		out := decideJoin(db, join, c.nk, c.nl, c.nkl, oracle, o.Stats, res)
		res.Outcomes = append(res.Outcomes, out)
	}
	nei := 0
	for _, out := range res.Outcomes {
		switch out.Case {
		case CaseNEINewRelation, CaseNEIForced, CaseNEIIgnored:
			nei++
		}
	}
	tr.Add(obs.CtrINDsTested, int64(len(joins)))
	tr.Add(obs.CtrINDsAccepted, int64(res.INDs.Len()))
	tr.Add(obs.CtrNEIEscalated, int64(nei))
	tr.Add(obs.CtrDistinctQueries, int64(res.ExtensionQueries))
	dsp.SetInt("inds", int64(res.INDs.Len()))
	dsp.SetInt("nei", int64(nei))
	dsp.End()
	return res, nil
}

// joinCounts carries the three counts of one equi-join.
type joinCounts struct {
	nk, nl, nkl int
	err         error
}

// countJoin computes the three counts of one equi-join by direct scans.
func countJoin(db *table.Database, join deps.EquiJoin) (c joinCounts) {
	return countJoinOpts(db, join, nil)
}

// countJoinOpts computes the three counts of one equi-join, through the
// statistics cache when one is supplied.
func countJoinOpts(db *table.Database, join deps.EquiJoin, cache *stats.Cache) (c joinCounts) {
	tk, ok := db.Table(join.Left.Rel)
	if !ok {
		c.err = fmt.Errorf("ind: unknown relation %q", join.Left.Rel)
		return c
	}
	tl, ok := db.Table(join.Right.Rel)
	if !ok {
		c.err = fmt.Errorf("ind: unknown relation %q", join.Right.Rel)
		return c
	}
	if cache != nil {
		if c.nk, c.err = cache.DistinctCount(join.Left.Rel, join.Left.Attrs); c.err != nil {
			return c
		}
		if c.nl, c.err = cache.DistinctCount(join.Right.Rel, join.Right.Attrs); c.err != nil {
			return c
		}
		c.nkl, c.err = cache.JoinDistinctCount(join.Left.Rel, join.Left.Attrs, join.Right.Rel, join.Right.Attrs)
		return c
	}
	if c.nk, c.err = tk.DistinctCount(join.Left.Attrs); c.err != nil {
		return c
	}
	if c.nl, c.err = tl.DistinctCount(join.Right.Attrs); c.err != nil {
		return c
	}
	c.nkl, c.err = table.JoinDistinctCount(tk, join.Left.Attrs, tl, join.Right.Attrs)
	return c
}

// decideJoin applies the algorithm's branches given precomputed counts; it
// mirrors the tail of processJoin.
func decideJoin(db *table.Database, join deps.EquiJoin, nk, nl, nkl int, oracle expert.Oracle, cache *stats.Cache, res *Result) Outcome {
	out := Outcome{Join: join, NK: nk, NL: nl, NKL: nkl}
	add := func(d deps.IND) {
		if res.INDs.Add(d) {
			out.Added = append(out.Added, d)
		}
	}
	left := deps.Side{Rel: join.Left.Rel, Attrs: join.Left.Attrs}
	right := deps.Side{Rel: join.Right.Rel, Attrs: join.Right.Attrs}
	switch {
	case nkl == 0:
		out.Case = CaseEmpty
	case nkl == nk || nkl == nl:
		out.Case = CaseInclusion
		if nkl == nk {
			add(deps.NewIND(left, right))
		}
		if nkl == nl {
			add(deps.NewIND(right, left))
		}
	default:
		decision := oracle.DecideNEI(expert.NEIContext{Join: join, NK: nk, NL: nl, NKL: nkl})
		switch decision.Action {
		case expert.NEINewRelation:
			name, newRel, err := conceptualizeNEI(db, join, decision.Name, oracle, cache)
			if err != nil {
				out.Case, out.Err = CaseError, err
				return out
			}
			out.Case, out.NewRelation = CaseNEINewRelation, name
			res.NewRelations = append(res.NewRelations, name)
			add(deps.NewIND(deps.Side{Rel: name, Attrs: newRel}, left))
			add(deps.NewIND(deps.Side{Rel: name, Attrs: newRel}, right))
		case expert.NEIForceLeft:
			out.Case = CaseNEIForced
			add(deps.NewIND(left, right))
		case expert.NEIForceRight:
			out.Case = CaseNEIForced
			add(deps.NewIND(right, left))
		default:
			out.Case = CaseNEIIgnored
		}
	}
	return out
}
