package table

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// This file differentially tests the storage engine against the row
// model (model_test.go): a table and a model are fed the identical
// random insert sequence, must accept and reject the same rows with the
// same error text, and must then agree on every primitive the pipelines
// consume — including the bit-level RowGroup vectors, whose
// first-occurrence-dense numbering the model derives from value-keyed
// maps and the engine from dictionary codes and partition refinement.

// valueGen parameterizes randValue: a NULL once in nullOneIn draws (0:
// never), numeric domains of dom values and string domains of strDom.
type valueGen struct{ nullOneIn, dom, strDom int }

var defaultGen = valueGen{nullOneIn: 5, dom: 7, strDom: 15}

// keyPool stresses the key encodings: strings containing the 0x1f
// separator, strings that spell kind tags ("s…", "i…"), the empty
// string (which coerces to NULL in non-string columns).
var keyPool = []string{
	"", "a", "b", "ab", "\x1f", "a\x1f", "\x1fa", "a\x1fb",
	"s", "s1", "i7", "f0", "n", "t", "d19960201",
}

// randValue draws a value of the given kind. Floats include NaN (map
// equality differs from Key equality) and zero; small domains make
// groups and UNIQUE keys actually collide.
func randValue(rng *rand.Rand, kind value.Kind, g valueGen) value.Value {
	if g.nullOneIn > 0 && rng.Intn(g.nullOneIn) == 0 {
		return value.Null
	}
	switch kind {
	case value.KindInt:
		return value.NewInt(int64(rng.Intn(g.dom) - g.dom/2))
	case value.KindFloat:
		switch rng.Intn(5) {
		case 0:
			return value.NewFloat(math.NaN())
		case 1:
			return value.NewFloat(0)
		default:
			return value.NewFloat(float64(rng.Intn(g.dom)) / 2)
		}
	case value.KindBool:
		return value.NewBool(rng.Intn(2) == 0)
	case value.KindDate:
		return value.NewDate(1996, 2, 1+rng.Intn(min(g.dom, 28)))
	}
	if i := rng.Intn(g.strDom); i < len(keyPool) {
		return value.NewString(keyPool[i])
	} else {
		return value.NewString(fmt.Sprintf("v%d", i))
	}
}

var allKinds = []value.Kind{value.KindInt, value.KindString, value.KindFloat, value.KindBool, value.KindDate}

// buildWithModel grows a table and a model through the same random
// sequence: checked inserts (some carrying a value of another kind, so
// coercion and coercion failures take part), a tolerant-loader fallback
// to InsertUnchecked for half of the rejected rows, and direct unchecked
// inserts of mixed-kind rows. Every checked insert must get the same
// verdict and error text from both.
func buildWithModel(t *testing.T, rng *rand.Rand, s *relation.Schema, nrows int, g valueGen) (*Table, *model) {
	t.Helper()
	tab, m := New(s), newModel(s)
	for n := 0; n < nrows; n++ {
		r := make(Row, len(s.Attrs))
		for i, a := range s.Attrs {
			r[i] = randValue(rng, a.Type, g)
		}
		if rng.Intn(8) == 0 {
			// Unchecked inserts bypass coercion, so columns can hold
			// mixed kinds — the int fast paths must bail.
			r[rng.Intn(len(r))] = randValue(rng, value.KindString, g)
			tab.InsertUnchecked(r)
			m.InsertUnchecked(r)
			continue
		}
		if rng.Intn(6) == 0 {
			r[rng.Intn(len(r))] = randValue(rng, allKinds[rng.Intn(len(allKinds))], g)
		}
		errTab, errModel := tab.Insert(r), m.Insert(r)
		if fmt.Sprint(errTab) != fmt.Sprint(errModel) {
			t.Fatalf("insert %d %v: engine error %v, model error %v", n, r, errTab, errModel)
		}
		if errTab != nil && rng.Intn(2) == 0 {
			tab.InsertUnchecked(r)
			m.InsertUnchecked(r)
		}
	}
	return tab, m
}

// diffSchema is the single-table differential schema: every value kind,
// a single-attribute UNIQUE(i) and a composite UNIQUE(s,d).
func diffSchema() *relation.Schema {
	return relation.MustSchema("R", []relation.Attribute{
		{Name: "i", Type: value.KindInt},
		{Name: "s", Type: value.KindString},
		{Name: "f", Type: value.KindFloat},
		{Name: "b", Type: value.KindBool},
		{Name: "d", Type: value.KindDate},
	}, relation.NewAttrSet("i"), relation.NewAttrSet("s", "d"))
}

// diffRows is the row count TestEngineDifferential uses for a seed.
func diffRows(seed int64) int { return 40 + rand.New(rand.NewSource(seed)).Intn(120) }

// attrSubsets enumerates a few deterministic attribute lists to probe.
func attrSubsets(s *relation.Schema) [][]string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	subsets := [][]string{}
	for _, n := range names {
		subsets = append(subsets, []string{n})
	}
	for i := 0; i+1 < len(names); i++ {
		subsets = append(subsets, []string{names[i], names[i+1]})
	}
	if len(names) >= 3 {
		subsets = append(subsets, names[:3], names)
	}
	return subsets
}

func sameValues(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

func compareProjection(t *testing.T, label string, got *Projection, want modelProjection) {
	t.Helper()
	if !slices.Equal(got.RowGroup, want.rowGroup) {
		t.Errorf("%s: RowGroup differs\nengine: %v\nmodel:  %v", label, got.RowGroup, want.rowGroup)
	}
	if got.Len() != want.groups || got.NonNull != want.nonNull {
		t.Errorf("%s: Len/NonNull: engine (%d,%d), model (%d,%d)", label, got.Len(), got.NonNull, want.groups, want.nonNull)
	}
	gi, gs := got.IntDict(), got.StrDict()
	if (gi == nil) != (want.ints == nil) || (gs == nil) != (want.strs == nil) {
		t.Fatalf("%s: dictionary flavour: engine (int=%v,str=%v), model (int=%v,str=%v)",
			label, gi != nil, gs != nil, want.ints != nil, want.strs != nil)
	}
	if gi != nil && !reflect.DeepEqual(gi, want.ints) {
		t.Errorf("%s: IntDict\nengine: %v\nmodel:  %v", label, gi, want.ints)
	}
	if gs != nil && !reflect.DeepEqual(gs, want.strs) {
		t.Errorf("%s: StrDict\nengine: %q\nmodel:  %q", label, gs, want.strs)
	}
}

// compareWithModel checks every single-table primitive against the model.
func compareWithModel(t *testing.T, tab *Table, m *model) {
	t.Helper()
	if tab.Len() != len(m.rows) {
		t.Fatalf("Len: engine %d, model %d", tab.Len(), len(m.rows))
	}
	for i, want := range m.rows {
		if got := tab.Row(i); !sameValues(got, want) {
			t.Fatalf("Row(%d): engine %v, model %v", i, got, want)
		}
		for j, v := range want {
			if got := tab.Value(i, j); got.Key() != v.Key() {
				t.Fatalf("Value(%d,%d): engine %v, model %v", i, j, got, v)
			}
		}
	}
	s := tab.Schema()
	for _, attrs := range attrSubsets(s) {
		label := fmt.Sprint(attrs)
		if n, err := tab.DistinctCount(attrs); err != nil || n != m.DistinctCount(attrs) {
			t.Errorf("DistinctCount%s: engine (%d,%v), model %d", label, n, err, m.DistinctCount(attrs))
		}
		if n, err := tab.CountNonNull(attrs); err != nil || n != m.CountNonNull(attrs) {
			t.Errorf("CountNonNull%s: engine (%d,%v), model %d", label, n, err, m.CountNonNull(attrs))
		}
		if set, err := tab.DistinctSet(attrs); err != nil || !reflect.DeepEqual(set, m.DistinctSet(attrs)) {
			t.Errorf("DistinctSet%s: engine (%q,%v), model %q", label, set, err, m.DistinctSet(attrs))
		}
		if groups, err := tab.GroupRows(attrs); err != nil || !reflect.DeepEqual(groups, m.GroupRows(attrs)) {
			t.Errorf("GroupRows%s: engine (%v,%v), model %v", label, groups, err, m.GroupRows(attrs))
		}
		want := m.Projection(attrs)
		p, err := tab.Projection(attrs)
		if err != nil {
			t.Fatalf("Projection%s: %v", label, err)
		}
		compareProjection(t, "Projection"+label, p, want)
		if len(attrs) > 1 {
			prefix, err := tab.Projection(attrs[:1])
			if err != nil {
				t.Fatal(err)
			}
			pf, err := tab.ProjectionFrom(prefix, 1, attrs)
			if err != nil {
				t.Fatalf("ProjectionFrom%s: %v", label, err)
			}
			compareProjection(t, "ProjectionFrom"+label, pf, want)
		}
		rows, err := tab.DistinctRows(attrs)
		wantRows := m.DistinctRows(attrs)
		if err != nil || len(rows) != len(wantRows) {
			t.Errorf("DistinctRows%s: engine %d rows (%v), model %d", label, len(rows), err, len(wantRows))
		} else {
			for i := range rows {
				if !sameValues(rows[i], wantRows[i]) {
					t.Errorf("DistinctRows%s[%d]: engine %v, model %v", label, i, rows[i], wantRows[i])
				}
			}
		}
		proj, err := tab.Project(attrs)
		wantProj := m.Project(attrs)
		if err != nil || len(proj) != len(wantProj) {
			t.Errorf("Project%s: engine %d rows (%v), model %d", label, len(proj), err, len(wantProj))
		} else {
			for i := range proj {
				if !sameValues(proj[i], wantProj[i]) {
					t.Errorf("Project%s[%d]: engine %v, model %v", label, i, proj[i], wantProj[i])
				}
			}
		}
	}
	sorted, wantSorted := tab.SortedRows(), m.SortedRows()
	if len(sorted) != len(wantSorted) {
		t.Fatalf("SortedRows: engine %d rows, model %d", len(sorted), len(wantSorted))
	}
	for i := range sorted {
		if !sameValues(sorted[i], wantSorted[i]) {
			t.Fatalf("SortedRows[%d]: engine %v, model %v", i, sorted[i], wantSorted[i])
		}
	}
	for c := range s.Attrs {
		pred := func(r Row) bool { return !r[c].IsNull() }
		if got, want := tab.Filter(pred), m.Filter(pred); !reflect.DeepEqual(got, want) {
			t.Errorf("Filter(%s non-NULL): engine %v, model %v", s.Attrs[c].Name, got, want)
		}
	}
	checks := append([]relation.AttrSet{}, s.Uniques...)
	for _, a := range s.Attrs {
		checks = append(checks, relation.NewAttrSet(a.Name))
	}
	for _, u := range checks {
		ok, a, b, err := tab.CheckUnique(u)
		wok, wa, wb := m.CheckUnique(u)
		if err != nil || ok != wok || a != wa || b != wb {
			t.Errorf("CheckUnique(%v): engine (%v,%d,%d,%v), model (%v,%d,%d)", u, ok, a, b, err, wok, wa, wb)
		}
	}
}

// compareJoins checks the two-table primitives — the IND-Discovery
// kernels — against the model over every equal-arity attribute pairing.
func compareJoins(t *testing.T, tk *Table, mk *model, tl *Table, ml *model) {
	t.Helper()
	attrs := [][]string{{"i"}, {"s"}, {"i", "s"}}
	for _, ak := range attrs {
		for _, al := range attrs {
			if len(ak) != len(al) {
				continue
			}
			label := fmt.Sprintf("%v~%v", ak, al)
			n, err := JoinDistinctCount(tk, ak, tl, al)
			if want := modelJoinDistinctCount(mk, ak, ml, al); err != nil || n != want {
				t.Errorf("JoinDistinctCount%s: engine (%d,%v), model %d", label, n, err, want)
			}
			in, err := ContainedIn(tk, ak, tl, al)
			if want := modelContainedIn(mk, ak, ml, al); err != nil || in != want {
				t.Errorf("ContainedIn%s: engine (%v,%v), model %v", label, in, err, want)
			}
			pairs, err := EquiJoinRows(tk, ak, tl, al)
			if want := modelEquiJoinRows(mk, ak, ml, al); err != nil || !reflect.DeepEqual(pairs, want) {
				t.Errorf("EquiJoinRows%s: engine (%v,%v), model %v", label, pairs, err, want)
			}
		}
	}
}

// joinSchema is the two-table differential schema. No UNIQUE: the join
// sides should hold duplicate keys.
func joinSchema() *relation.Schema {
	return relation.MustSchema("R", []relation.Attribute{
		{Name: "i", Type: value.KindInt},
		{Name: "s", Type: value.KindString},
	})
}

// modelDifferential is one full differential run: a table over
// diffSchema under both refinement budgets — the default (dense at these
// sizes) and 0, which forces the map path — and a join pair.
func modelDifferential(t *testing.T, seed int64, nrows int, g valueGen, budgets []int64) {
	for _, budget := range budgets {
		func() {
			defer SetRefineDenseBudget(SetRefineDenseBudget(budget))
			rng := rand.New(rand.NewSource(seed))
			tab, m := buildWithModel(t, rng, diffSchema(), nrows, g)
			compareWithModel(t, tab, m)
		}()
	}
}

func TestEngineDifferential(t *testing.T) {
	for _, budget := range []int64{-1, 0} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					modelDifferential(t, seed, diffRows(seed), defaultGen, []int64{budget})
				})
			}
		})
	}
}

func TestEngineDifferentialJoins(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			tk, mk := buildWithModel(t, rng, joinSchema(), 60, defaultGen)
			tl, ml := buildWithModel(t, rng, joinSchema(), 60, defaultGen)
			compareJoins(t, tk, mk, tl, ml)
		})
	}
}

// FuzzTableModel is the model differential with the fuzzer choosing the
// seed, the row count, the NULL density and the value domains; each
// input runs the single-table comparison under both refinement budgets
// and a join pair. Exercised by the ci.sh fuzz smoke; the corpus starts
// from TestEngineDifferential's seeds.
func FuzzTableModel(f *testing.F) {
	for seed := int64(0); seed < 20; seed++ {
		f.Add(seed, uint8(diffRows(seed)), uint8(defaultGen.nullOneIn), uint8(defaultGen.dom), uint8(defaultGen.strDom))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, nullOneIn, dom, strDom uint8) {
		g := valueGen{nullOneIn: int(nullOneIn), dom: max(int(dom), 1), strDom: max(int(strDom), 1)}
		modelDifferential(t, seed, int(rows), g, []int64{-1, 0})
		rng := rand.New(rand.NewSource(seed))
		tk, mk := buildWithModel(t, rng, joinSchema(), int(rows)/2, g)
		tl, ml := buildWithModel(t, rng, joinSchema(), int(rows)/2, g)
		compareJoins(t, tk, mk, tl, ml)
	})
}
