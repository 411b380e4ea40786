package table

import (
	"fmt"
	"sort"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// model is the differential oracle for Table: the extension kept as a
// plain []Row, with every primitive computed from its textbook
// definition over the stored values. Grouping is value-keyed (value.Key
// plus a 0x1f terminator per attribute, the canonical composite key),
// group ids are handed out densely in first-occurrence row order, and
// joins are nested loops. It shares no code with the engine beyond
// value.Value, so engine_differential_test.go can hold the dictionary
// codes, partition refinement and code-keyed UNIQUE indexes to the
// semantics they implement.
type model struct {
	schema *relation.Schema
	rows   []Row
	// uniq[k] holds the registrations of the schema's k-th UNIQUE
	// constraint: composite key → index of the row registered under it.
	uniq []map[string]int
}

func newModel(s *relation.Schema) *model {
	m := &model{schema: s, uniq: make([]map[string]int, len(s.Uniques))}
	for k := range m.uniq {
		m.uniq[k] = make(map[string]int)
	}
	return m
}

// cols resolves attribute names to column positions.
func (m *model) cols(attrs []string) []int {
	idx := make([]int, len(attrs))
	for i, name := range attrs {
		idx[i] = -1
		for c, a := range m.schema.Attrs {
			if a.Name == name {
				idx[i] = c
			}
		}
		if idx[i] < 0 {
			panic(fmt.Sprintf("model: unknown attribute %q", name))
		}
	}
	return idx
}

// modelKey is the canonical composite key of row over idx; null reports
// a NULL among the attributes (such rows belong to no group).
func modelKey(row Row, idx []int) (key string, null bool) {
	for _, c := range idx {
		if row[c].IsNull() {
			return "", true
		}
		key += row[c].Key() + "\x1f"
	}
	return key, false
}

// Insert stores row under the schema's constraints: arity, per-attribute
// type coercion (value.Coerce) and NOT NULL, checked attribute by
// attribute, then the UNIQUE constraints in declaration order. A UNIQUE
// key may not hold a NULL, and a key equal to a registered one is a
// violation naming the registered row. Each constraint the row passes is
// registered before the next is checked, so a rejected row leaves the
// registrations of the constraints before the one it failed behind
// (under the index it would have received).
func (m *model) Insert(row Row) error {
	s := m.schema
	if len(row) != len(s.Attrs) {
		return fmt.Errorf("table %s: arity %d, want %d", s.Name, len(row), len(s.Attrs))
	}
	stored := make(Row, len(row))
	for i, a := range s.Attrs {
		v := row[i]
		if !v.IsNull() && v.Kind() != a.Type {
			c, ok := value.Coerce(v, a.Type)
			if !ok {
				return fmt.Errorf("table %s: attribute %s: cannot store %v as %v", s.Name, a.Name, v.Kind(), a.Type)
			}
			v = c
		}
		if v.IsNull() && a.NotNull {
			return fmt.Errorf("table %s: attribute %s is NOT NULL", s.Name, a.Name)
		}
		stored[i] = v
	}
	for k, u := range s.Uniques {
		key, null := modelKey(stored, m.cols(u.Names()))
		if null {
			return fmt.Errorf("table %s: NULL in key %v", s.Name, u)
		}
		if prev, dup := m.uniq[k][key]; dup {
			return fmt.Errorf("table %s: UNIQUE(%v) violated by row %d", s.Name, u, prev)
		}
		m.uniq[k][key] = len(m.rows)
	}
	m.rows = append(m.rows, stored)
	return nil
}

// InsertUnchecked stores a copy of row as given: no coercion, no
// constraint checks, no UNIQUE registration.
func (m *model) InsertUnchecked(row Row) { m.rows = append(m.rows, append(Row{}, row...)) }

func (m *model) Project(attrs []string) [][]value.Value {
	idx := m.cols(attrs)
	out := make([][]value.Value, len(m.rows))
	for i, r := range m.rows {
		for _, c := range idx {
			out[i] = append(out[i], r[c])
		}
	}
	return out
}

func (m *model) CountNonNull(attrs []string) int {
	idx := m.cols(attrs)
	n := 0
	for _, r := range m.rows {
		if _, null := modelKey(r, idx); !null {
			n++
		}
	}
	return n
}

func (m *model) DistinctSet(attrs []string) map[string]struct{} {
	idx := m.cols(attrs)
	set := make(map[string]struct{})
	for _, r := range m.rows {
		if key, null := modelKey(r, idx); !null {
			set[key] = struct{}{}
		}
	}
	return set
}

// DistinctCount is the paper's ‖r[X]‖: the number of distinct NULL-free
// value combinations.
func (m *model) DistinctCount(attrs []string) int { return len(m.DistinctSet(attrs)) }

func (m *model) GroupRows(attrs []string) map[string][]int32 {
	idx := m.cols(attrs)
	groups := make(map[string][]int32)
	for i, r := range m.rows {
		if key, null := modelKey(r, idx); !null {
			groups[key] = append(groups[key], int32(i))
		}
	}
	return groups
}

// modelProjection is the model's Projection: the row → group-id vector
// and exactly one dictionary flavour.
type modelProjection struct {
	rowGroup []int32
	nonNull  int
	groups   int
	ints     map[int64]int32 // a single attribute holding only integers
	strs     map[string]int32
}

func (m *model) Projection(attrs []string) modelProjection {
	idx := m.cols(attrs)
	p := modelProjection{rowGroup: make([]int32, len(m.rows))}
	ids := make(map[string]int32)
	for i, r := range m.rows {
		key, null := modelKey(r, idx)
		if null {
			p.rowGroup[i] = -1
			continue
		}
		id, ok := ids[key]
		if !ok {
			id = int32(len(ids))
			ids[key] = id
		}
		p.rowGroup[i] = id
		p.nonNull++
	}
	p.groups = len(ids)
	intFlavor := len(idx) == 1
	for _, r := range m.rows {
		if v := r[idx[0]]; intFlavor && !v.IsNull() && v.Kind() != value.KindInt {
			intFlavor = false
		}
	}
	if !intFlavor {
		p.strs = ids
		return p
	}
	p.ints = make(map[int64]int32, len(ids))
	for i, r := range m.rows {
		if g := p.rowGroup[i]; g >= 0 {
			p.ints[r[idx[0]].Int()] = g
		}
	}
	return p
}

func modelLess(a, b []value.Value) bool {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c < 0
		}
	}
	return false
}

// DistinctRows is one first-occurrence representative per distinct
// NULL-free combination, sorted by tuple order.
func (m *model) DistinctRows(attrs []string) [][]value.Value {
	idx := m.cols(attrs)
	seen := make(map[string]bool)
	var out [][]value.Value
	for _, r := range m.rows {
		key, null := modelKey(r, idx)
		if null || seen[key] {
			continue
		}
		seen[key] = true
		var vals []value.Value
		for _, c := range idx {
			vals = append(vals, r[c])
		}
		out = append(out, vals)
	}
	sort.Slice(out, func(i, j int) bool { return modelLess(out[i], out[j]) })
	return out
}

func (m *model) SortedRows() []Row {
	out := make([]Row, len(m.rows))
	copy(out, m.rows)
	sort.Slice(out, func(i, j int) bool { return modelLess(out[i], out[j]) })
	return out
}

func (m *model) Filter(pred func(Row) bool) []int {
	var out []int
	for i, r := range m.rows {
		if pred(r) {
			out = append(out, i)
		}
	}
	return out
}

// CheckUnique finds the first row j that repeats the NULL-free key of an
// earlier row i (the first such i), by comparing every pair.
func (m *model) CheckUnique(u relation.AttrSet) (ok bool, rowA, rowB int) {
	idx := m.cols(u.Names())
	for j, rj := range m.rows {
		kj, null := modelKey(rj, idx)
		if null {
			continue
		}
		for i := 0; i < j; i++ {
			if ki, null := modelKey(m.rows[i], idx); !null && ki == kj {
				return false, i, j
			}
		}
	}
	return true, 0, 0
}

// modelJoinDistinctCount is ‖r_k[A_k] ⋈ r_l[A_l]‖: the size of the
// intersection of the two distinct sets.
func modelJoinDistinctCount(mk *model, ak []string, ml *model, al []string) int {
	right := ml.DistinctSet(al)
	n := 0
	for key := range mk.DistinctSet(ak) {
		if _, ok := right[key]; ok {
			n++
		}
	}
	return n
}

// modelContainedIn reports whether the distinct set of mk over ak is a
// subset of the distinct set of ml over al.
func modelContainedIn(mk *model, ak []string, ml *model, al []string) bool {
	right := ml.DistinctSet(al)
	for key := range mk.DistinctSet(ak) {
		if _, ok := right[key]; !ok {
			return false
		}
	}
	return true
}

// modelEquiJoinRows is the nested-loop equi-join: every (i, j) pair
// whose NULL-free keys are equal, in row order.
func modelEquiJoinRows(mk *model, ak []string, ml *model, al []string) [][2]int {
	ik, il := mk.cols(ak), ml.cols(al)
	var out [][2]int
	for i, ri := range mk.rows {
		ki, null := modelKey(ri, ik)
		if null {
			continue
		}
		for j, rj := range ml.rows {
			if kj, null := modelKey(rj, il); !null && ki == kj {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}
