package ind

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// randSets generates two random small integer multisets.
type randSets struct {
	A, B []int64
}

// Generate implements quick.Generator.
func (randSets) Generate(r *rand.Rand, _ int) reflect.Value {
	gen := func() []int64 {
		n := r.Intn(30)
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(r.Intn(12))
		}
		return out
	}
	return reflect.ValueOf(randSets{gen(), gen()})
}

func setOf(vs []int64) map[int64]bool {
	m := map[int64]bool{}
	for _, v := range vs {
		m[v] = true
	}
	return m
}

// TestQuickBranchMatchesSetTheory: for any pair of value sets, the
// algorithm's branch matches the set relationship — empty intersection,
// inclusion (either or both directions), or proper NEI.
func TestQuickBranchMatchesSetTheory(t *testing.T) {
	f := func(rs randSets) bool {
		db := buildPair(rs.A, rs.B)
		res, err := Discover(db, q1(), expert.Deny{})
		if err != nil || len(res.Outcomes) != 1 {
			return false
		}
		out := res.Outcomes[0]
		sa, sb := setOf(rs.A), setOf(rs.B)
		inter := 0
		for v := range sa {
			if sb[v] {
				inter++
			}
		}
		aInB := inter == len(sa) && len(sa) > 0
		bInA := inter == len(sb) && len(sb) > 0
		switch {
		case inter == 0:
			return out.Case == CaseEmpty && res.INDs.Len() == 0
		case aInB || bInA:
			if out.Case != CaseInclusion {
				return false
			}
			want := 0
			if aInB {
				want++
			}
			if bInA {
				want++
			}
			if aInB && bInA && len(sa) == len(sb) && inter == len(sa) {
				// Equal sets: both directions, distinct INDs.
				want = 2
			}
			return res.INDs.Len() == want
		default:
			return out.Case == CaseNEIIgnored && res.INDs.Len() == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelEqualsSerial: on random data, parallel and serial
// discovery are indistinguishable.
func TestQuickParallelEqualsSerial(t *testing.T) {
	f := func(rs randSets) bool {
		s, err := Discover(buildPair(rs.A, rs.B), q1(), expert.Deny{})
		if err != nil {
			return false
		}
		p, err := DiscoverOptsCtx(context.Background(), buildPair(rs.A, rs.B), q1(), expert.Deny{}, Opts{Workers: 3})
		if err != nil {
			return false
		}
		return s.INDs.String() == p.INDs.String() &&
			len(s.Outcomes) == len(p.Outcomes) &&
			s.Outcomes[0].String() == p.Outcomes[0].String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickVerifyAgreesWithDiscovery: everything Discover elicits without
// expert forcing verifies against the extension.
func TestQuickVerifyAgreesWithDiscovery(t *testing.T) {
	f := func(rs randSets) bool {
		db := buildPair(rs.A, rs.B)
		res, err := Discover(db, q1(), expert.Deny{})
		if err != nil {
			return false
		}
		bad, err := Verify(db, res.INDs)
		return err == nil && len(bad) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// buildPair is smallDB without the testing.T plumbing.
func buildPair(a, b []int64) *table.Database {
	db := table.NewDatabase(pairCatalog())
	for _, v := range a {
		db.MustTable("L").MustInsert(table.Row{intVal(v)})
	}
	for _, v := range b {
		db.MustTable("R").MustInsert(table.Row{intVal(v)})
	}
	return db
}

// randMultiDB generates several single-attribute relations plus the join
// set connecting every ordered pair — enough joins that a worker pool has
// real work and NEI conceptualization (which appends relations mid-run)
// occurs regularly.
type randMultiDB struct {
	Cols [][]int64
}

// Generate implements quick.Generator.
func (randMultiDB) Generate(r *rand.Rand, _ int) reflect.Value {
	k := 3 + r.Intn(3) // 3..5 relations
	cols := make([][]int64, k)
	for i := range cols {
		n := r.Intn(25)
		cols[i] = make([]int64, n)
		for j := range cols[i] {
			cols[i][j] = int64(r.Intn(10))
		}
	}
	return reflect.ValueOf(randMultiDB{cols})
}

func (m randMultiDB) build() (*table.Database, *deps.JoinSet) {
	schemas := make([]*relation.Schema, len(m.Cols))
	for i := range m.Cols {
		schemas[i] = relation.MustSchema(fmt.Sprintf("T%d", i),
			[]relation.Attribute{{Name: "v", Type: value.KindInt}})
	}
	db := table.NewDatabase(relation.MustCatalog(schemas...))
	for i, col := range m.Cols {
		for _, v := range col {
			db.MustTable(fmt.Sprintf("T%d", i)).MustInsert(table.Row{intVal(v)})
		}
	}
	var joins []deps.EquiJoin
	for i := range m.Cols {
		for j := i + 1; j < len(m.Cols); j++ {
			joins = append(joins, deps.NewEquiJoin(
				deps.NewSide(fmt.Sprintf("T%d", i), "v"),
				deps.NewSide(fmt.Sprintf("T%d", j), "v")))
		}
	}
	return db, deps.NewJoinSet(joins...)
}

// TestQuickParallelCachedEqualsSerialOracleOrder: for p ∈ {2, 4, 8}, with
// and without the statistics cache, DiscoverOptsCtx must
// reproduce the serial reference run exactly — same outcomes, same INDs,
// same conceptualized relations, same query counter, and the expert
// consulted on the same subjects in the same order with the same answers
// (checked through a recording oracle around the full Auto policy, so NEI
// conceptualization and its mid-run relation appends are exercised).
func TestQuickParallelCachedEqualsSerialOracleOrder(t *testing.T) {
	f := func(m randMultiDB) bool {
		refDB, refQ := m.build()
		refOracle := expert.NewRecording(expert.NewAuto())
		ref, err := Discover(refDB, refQ, refOracle)
		if err != nil {
			return false
		}
		for _, p := range []int{2, 4, 8} {
			for _, cached := range []bool{false, true} {
				db, q := m.build()
				oracle := expert.NewRecording(expert.NewAuto())
				var got *Result
				if cached {
					got, err = DiscoverOptsCtx(context.Background(), db, q, oracle, Opts{Stats: stats.NewCache(db), Workers: p})
				} else {
					got, err = DiscoverOptsCtx(context.Background(), db, q, oracle, Opts{Workers: p})
				}
				if err != nil {
					return false
				}
				if got.INDs.String() != ref.INDs.String() ||
					got.ExtensionQueries != ref.ExtensionQueries ||
					len(got.Outcomes) != len(ref.Outcomes) ||
					!reflect.DeepEqual(got.NewRelations, ref.NewRelations) {
					return false
				}
				for i := range ref.Outcomes {
					if got.Outcomes[i].String() != ref.Outcomes[i].String() {
						return false
					}
				}
				if len(oracle.Log) != len(refOracle.Log) {
					return false
				}
				for i := range refOracle.Log {
					if oracle.Log[i] != refOracle.Log[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
