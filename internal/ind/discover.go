// Package ind implements the paper's IND-Discovery algorithm (Section 6.1):
// inclusion dependencies are elicited by checking each equi-join of Q
// against the database extension, with the expert user arbitrating
// non-empty intersections. The package also implements an exhaustive,
// data-only discovery baseline (in baseline.go) used to quantify the
// paper's central efficiency claim: query guidance examines only the
// attribute pairs programmers actually navigate.
package ind

import (
	"context"
	"fmt"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// Case classifies what IND-Discovery did with one equi-join.
type Case int

// Outcome cases, mirroring the algorithm's branches.
const (
	// CaseEmpty: the two value sets do not intersect (branch (i)); a data
	// integrity problem may exist and nothing is elicited.
	CaseEmpty Case = iota
	// CaseInclusion: the intersection equals one (or both) of the value
	// sets; inclusion dependencies are elicited (branches (ii)/(iii)).
	CaseInclusion
	// CaseNEINewRelation: the expert conceptualized the intersection as a
	// new relation in S (branch (iv)).
	CaseNEINewRelation
	// CaseNEIForced: the expert enforced one direction against the
	// extension (branches (v)/(vi)).
	CaseNEIForced
	// CaseNEIIgnored: the expert dropped the non-empty intersection
	// (branch (vii)).
	CaseNEIIgnored
	// CaseError: the join refers to unknown relations or attributes.
	CaseError
)

// String names the case.
func (c Case) String() string {
	switch c {
	case CaseEmpty:
		return "empty-intersection"
	case CaseInclusion:
		return "inclusion"
	case CaseNEINewRelation:
		return "nei-new-relation"
	case CaseNEIForced:
		return "nei-forced"
	case CaseNEIIgnored:
		return "nei-ignored"
	case CaseError:
		return "error"
	default:
		return "?"
	}
}

// Outcome records how one equi-join was processed.
type Outcome struct {
	Join        deps.EquiJoin
	NK, NL, NKL int
	Case        Case
	Added       []deps.IND
	NewRelation string // set for CaseNEINewRelation
	Err         error  // set for CaseError
}

// String renders the outcome.
func (o Outcome) String() string {
	s := fmt.Sprintf("%s: Nk=%d Nl=%d Nkl=%d -> %s", o.Join, o.NK, o.NL, o.NKL, o.Case)
	if o.NewRelation != "" {
		s += " " + o.NewRelation
	}
	return s
}

// Result is the output of IND-Discovery: the elicited set IND, the new
// relations S, and a full trace.
type Result struct {
	INDs *deps.INDSet
	// NewRelations lists the names of the relations added to S, in
	// creation order; their schemas live in the database catalog.
	NewRelations []string
	Outcomes     []Outcome
	// ExtensionQueries counts the count-distinct/join queries issued
	// against the extension (three per equi-join), the cost measure the
	// efficiency claim is about.
	ExtensionQueries int
}

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

// DeltaStats summarizes how one pass classified the joins. A cold pass
// re-decides every join.
type DeltaStats struct {
	// Reused counts joins over unchanged relations: the previous
	// outcome is replayed without any extension query.
	Reused int
	// Recounted counts joins that reran their three extension queries
	// but whose counts came back unchanged, so the previous decision
	// (and NEI relation, if any) is kept without consulting the expert.
	Recounted int
	// Redecided counts joins whose evidence changed (or that have no
	// usable history): the full decision branch re-runs, including the
	// expert dialogue and NEI re-conceptualization.
	Redecided int
}

// DiscoverCtx runs IND-Discovery over the equi-joins of q against db,
// consulting oracle for every non-empty intersection. New relations
// conceptualized from NEIs are added to db (schema and extension). The
// traversal order is the canonical order of q, so runs are
// deterministic.
//
// Counting runs first (cached and/or parallel per o); the decision
// phase — branching, expert consultation, NEI conceptualization, which
// mutates the database — then replays the algorithm's branches
// sequentially in canonical join order, so outcomes, elicited INDs and
// the expert dialogue do not depend on o. A cancelled context stops the
// decision phase between joins.
//
// prev and baseRows are the history of a previous pass over the same,
// since grown, database: its result and each relation's row count when
// it ran (absent means the relation is new). A nil prev is a cold run,
// in which every join is counted and decided. With history, appends can
// only grow a projection's distinct set, so an unchanged (N_k, N_l,
// N_kl) triple implies an unchanged intersection set, and the previous
// decision (and any NEI relation built from it) is still exact. Joins
// over unchanged relations are therefore reused outright, joins
// touching grown relations are recounted, and only those whose counts
// moved are decided again. Their stale NEI concept relations are
// removed from db, and their baseRows entries deleted, before the
// decision loop, so re-conceptualization lands on the name a cold run
// would pick. With a deterministic oracle the result equals a cold run
// on the same state, except that relation naming can diverge when
// suggested NEI names collide across distinct joins (a cold run numbers
// them in decision order; a pass with history keeps surviving names
// stable).
//
// When a tracer is installed (obs.NewContext), counting and decision
// become child spans (suffixed "-delta" when prev is given), and the
// joins-tested / INDs-accepted / NEI-escalation / extension-query /
// re-escalation counters are published. Untraced contexts cost nothing
// (nil-span no-ops).
func DiscoverCtx(ctx context.Context, db *table.Database, q *deps.JoinSet, oracle expert.Oracle, o Opts, prev *Result, baseRows map[string]int) (*Result, DeltaStats, error) {
	var ds DeltaStats
	if oracle == nil {
		oracle = expert.NewAuto()
	}
	tr := obs.FromContext(ctx)
	spanName := func(name string) string {
		if prev != nil {
			return name + "-delta"
		}
		return name
	}
	joins := q.Sorted()
	prevOut := make(map[string]*Outcome)
	if prev != nil {
		for i := range prev.Outcomes {
			po := &prev.Outcomes[i]
			prevOut[po.Join.Key()] = po
		}
	}
	changed := func(rel string) bool {
		tab, ok := db.Table(rel)
		if !ok {
			return true
		}
		base, known := baseRows[rel]
		return !known || tab.Len() != base
	}
	const (
		kindReuse   = int8(0)
		kindRecount = int8(1)
		kindFull    = int8(2)
	)
	kinds := make([]int8, len(joins))
	for i, j := range joins {
		po, have := prevOut[j.Key()]
		switch {
		case !have || po.Err != nil:
			kinds[i] = kindFull
		case !changed(j.Left.Rel) && !changed(j.Right.Rel):
			kinds[i] = kindReuse
		default:
			kinds[i] = kindRecount
		}
	}
	results := make([]joinCounts, len(joins))
	_, csp := obs.StartSpan(ctx, spanName("count"))
	stats.ForEach(len(joins), o.Workers, func(i int) {
		if kinds[i] == kindReuse {
			po := prevOut[joins[i].Key()]
			results[i] = joinCounts{nk: po.NK, nl: po.NL, nkl: po.NKL}
			return
		}
		results[i] = countJoinOpts(db, joins[i], o.Stats)
	})
	csp.SetInt("joins", int64(len(joins)))
	csp.SetInt("workers", int64(o.Workers))
	csp.End()
	// Promote recounted joins with moved evidence (or a failed count) to
	// a full decision.
	for i, j := range joins {
		if kinds[i] != kindRecount {
			continue
		}
		po, c := prevOut[j.Key()], results[i]
		if c.err != nil || c.nk != po.NK || c.nl != po.NL || c.nkl != po.NKL {
			kinds[i] = kindFull
		}
	}
	// Retract stale NEI concept relations of re-decided joins before any
	// decision runs, so freed names cannot collide with the re-created
	// ones and downstream phases never see the outdated extensions. The
	// watermark goes even when an earlier, failed pass already removed
	// the relation: whatever is re-created under the name is new.
	reescalated := 0
	for i, j := range joins {
		po, have := prevOut[j.Key()]
		if kinds[i] != kindFull || !have {
			continue
		}
		reescalated++
		if po.NewRelation == "" {
			continue
		}
		if db.Catalog().Has(po.NewRelation) {
			if err := db.RemoveRelation(po.NewRelation); err != nil {
				return nil, ds, err
			}
			if o.Stats != nil {
				o.Stats.Invalidate(po.NewRelation)
			}
		}
		delete(baseRows, po.NewRelation)
	}

	_, dsp := obs.StartSpan(ctx, spanName("decide"))
	res := &Result{INDs: deps.NewINDSet()}
	nei := 0
	for i, join := range joins {
		// A cancelled run stops between joins: the current expert
		// consultation (which a ContextAware oracle already aborts on
		// cancellation) is the last work performed.
		if err := ctx.Err(); err != nil {
			dsp.End()
			return res, ds, fmt.Errorf("ind: cancelled after %d of %d joins: %w", i, len(joins), err)
		}
		c := results[i]
		if kinds[i] == kindFull {
			ds.Redecided++
			if c.err != nil {
				res.Outcomes = append(res.Outcomes, Outcome{Join: join, Case: CaseError, Err: c.err})
				continue
			}
			res.ExtensionQueries += 3
			out := decideJoin(db, join, c.nk, c.nl, c.nkl, oracle, o.Stats, res)
			switch out.Case {
			case CaseNEINewRelation, CaseNEIForced, CaseNEIIgnored:
				nei++
			}
			res.Outcomes = append(res.Outcomes, out)
			continue
		}
		if kinds[i] == kindReuse {
			ds.Reused++
		} else {
			ds.Recounted++
			res.ExtensionQueries += 3
		}
		po := prevOut[join.Key()]
		out := Outcome{Join: join, NK: po.NK, NL: po.NL, NKL: po.NKL, Case: po.Case, NewRelation: po.NewRelation}
		for _, d := range po.Added {
			if res.INDs.Add(d) {
				out.Added = append(out.Added, d)
			}
		}
		if po.Case == CaseNEINewRelation {
			res.NewRelations = append(res.NewRelations, po.NewRelation)
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	tr.Add(obs.CtrINDsTested, int64(len(joins)))
	tr.Add(obs.CtrINDsAccepted, int64(res.INDs.Len()))
	tr.Add(obs.CtrNEIEscalated, int64(nei))
	tr.Add(obs.CtrDistinctQueries, int64(res.ExtensionQueries))
	tr.Add(obs.CtrReescalations, int64(reescalated))
	dsp.SetInt("inds", int64(res.INDs.Len()))
	dsp.SetInt("nei", int64(nei))
	if prev != nil {
		dsp.SetInt("reused", int64(ds.Reused))
		dsp.SetInt("recounted", int64(ds.Recounted))
		dsp.SetInt("redecided", int64(ds.Redecided))
	}
	dsp.End()
	return res, ds, nil
}

// joinCounts carries the three counts of one equi-join.
type joinCounts struct {
	nk, nl, nkl int
	err         error
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

// decideJoin applies the algorithm's branches given precomputed counts.
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

// conceptualizeNEI creates the relation R_p(A_p) for a non-empty
// intersection, keyed on all its attributes, and fills its extension with
// the shared value combinations. Attribute names and types are taken from
// the join's left side.
func conceptualizeNEI(db *table.Database, join deps.EquiJoin, name string, oracle expert.Oracle, cache *stats.Cache) (string, []string, error) {
	tk := db.MustTable(join.Left.Rel)
	tl := db.MustTable(join.Right.Rel)
	base := relation.Ref{Rel: join.Left.Rel, Attrs: relation.NewAttrSet(join.Left.Attrs...)}
	if name == "" {
		suggested := uniqueName(db.Catalog(), join.Left.Rel+"-"+join.Right.Rel)
		name = oracle.NameRelation(expert.NameNEI, base, suggested)
	}
	if db.Catalog().Has(name) {
		name = uniqueName(db.Catalog(), name)
	}
	attrs := make([]relation.Attribute, len(join.Left.Attrs))
	for i, a := range join.Left.Attrs {
		src, ok := tk.Schema().Attr(a)
		if !ok {
			return "", nil, fmt.Errorf("ind: relation %s has no attribute %q", join.Left.Rel, a)
		}
		attrs[i] = relation.Attribute{Name: src.Name, Type: src.Type}
	}
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	schema, err := relation.NewSchema(name, attrs, relation.NewAttrSet(names...))
	if err != nil {
		return "", nil, err
	}
	if err := db.AddRelation(schema); err != nil {
		return "", nil, err
	}
	// Extension: the distinct intersection of the two projections. The
	// right-side membership test reuses the cached projection when a
	// cache is supplied — the counting phase already built it for N_l.
	newTab := db.MustTable(name)
	leftRows, err := tk.DistinctRows(join.Left.Attrs)
	if err != nil {
		return "", nil, err
	}
	var contains func(row []value.Value) bool
	if cache != nil {
		member, err := cache.Membership(join.Right.Rel, join.Right.Attrs)
		if err != nil {
			return "", nil, err
		}
		contains = member
	} else {
		rightSet, err := tl.DistinctSet(join.Right.Attrs)
		if err != nil {
			return "", nil, err
		}
		contains = func(row []value.Value) bool { _, ok := rightSet[rowSetKey(row)]; return ok }
	}
	for _, row := range leftRows {
		if contains(row) {
			if err := newTab.Insert(table.Row(row)); err != nil {
				return "", nil, err
			}
		}
	}
	return name, names, nil
}

// rowSetKey mirrors the composite key construction used by DistinctSet.
func rowSetKey(row []value.Value) string {
	out := make([]byte, 0, 16*len(row))
	for _, v := range row {
		out = append(out, v.Key()...)
		out = append(out, 0x1f)
	}
	return string(out)
}

// uniqueName derives a relation name not yet present in the catalog.
func uniqueName(cat *relation.Catalog, base string) string {
	if !cat.Has(base) {
		return base
	}
	for i := 2; ; i++ {
		name := fmt.Sprintf("%s-%d", base, i)
		if !cat.Has(name) {
			return name
		}
	}
}

// Verify checks every IND of the set against the extension and returns the
// ones that do not hold (possible after forced decisions, which the paper
// warns desynchronize the data structure from the extension).
func Verify(db *table.Database, set *deps.INDSet) ([]deps.IND, error) {
	var violated []deps.IND
	for _, d := range set.Sorted() {
		tl, ok := db.Table(d.Left.Rel)
		if !ok {
			return nil, fmt.Errorf("ind: unknown relation %q", d.Left.Rel)
		}
		tr, ok := db.Table(d.Right.Rel)
		if !ok {
			return nil, fmt.Errorf("ind: unknown relation %q", d.Right.Rel)
		}
		holds, err := table.ContainedIn(tl, d.Left.Attrs, tr, d.Right.Attrs)
		if err != nil {
			return nil, err
		}
		if !holds {
			violated = append(violated, d)
		}
	}
	return violated, nil
}
