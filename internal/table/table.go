// Package table implements the in-memory storage engine: tables holding the
// database extension E, tuple-level constraint enforcement, and the
// counting, projection and equi-join primitives the elicitation algorithms
// query ("select count distinct ..." in the paper's notation).
//
// A table stores its extension column by column, dictionary-encoded (see
// columnar.go). Every derived statistic is defined by value semantics:
// distinct counts and projection indexes group NULL-free value tuples
// under the canonical value.Key equality, and group ids are dense in
// first-occurrence row order. The test-side row model (model_test.go)
// computes each primitive from that definition with value-keyed maps and
// is the oracle the differential harness compares the engine against.
package table

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// Row is one tuple; Row[i] is the value of the i-th schema attribute.
type Row []value.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row{}, r...) }

// Table is a mutable multiset of tuples conforming to a relation schema.
type Table struct {
	schema *relation.Schema
	cols   map[string]int // attribute name → column index
	// columns holds one dictionary-encoded vector per attribute, each
	// nrows long.
	columns []column
	nrows   int
	// uniq holds one index per declared UNIQUE constraint, used to
	// enforce it on insert and by the batch appender's constraint
	// post-pass; see uniq.go.
	uniq []*uniqIndex
	// keyScratch is the reused packing buffer for composite-constraint
	// probes; codeScratch holds the looked-up key codes of one row.
	keyScratch  []byte
	codeScratch []int32
	// version counts mutations. Every path that changes the extension
	// (Insert, InsertUnchecked) bumps it; derived statistics keyed by
	// (table, version) — the stats package's cache — use it as their
	// invalidation hook. ReplaceRelation installs a fresh *Table, so a
	// changed pointer equally signals staleness.
	version uint64
	// lazy is non-nil on a table restored from a snapshot with deferred
	// column sections; internStale marks that the interning maps must be
	// rebuilt from the dictionaries before the first mutation. See
	// persist.go for both.
	lazy        *lazyCols
	internStale bool
	// epoch is the last published read snapshot: a frozen clone sharing
	// this table's immutable code/dictionary prefixes, republished at
	// every AppendBatch commit point and cleared by the per-row insert
	// paths. frozen marks such a clone; mutating it is a programming
	// error. See epoch.go.
	epoch  atomic.Pointer[Table]
	frozen bool
	// origin points a frozen clone back at the live table it was frozen
	// from; nil on live tables. Two frozen epochs with the same origin
	// are commit points of one append-only history, which is what lets
	// the stats cache delta-harvest a projection built over an older
	// epoch into a newer one (stats.getEntry) and lets a shared cache
	// recognize that a job's pinned view matches its own resolution of
	// the same relation.
	origin *Table
	// abytes memoizes ApproxBytes; valid only while abytesValid, kept
	// current by per-append delta accounting (see epoch.go, append.go).
	abytes      int64
	abytesValid bool
}

// New creates an empty table for the given schema.
func New(schema *relation.Schema) *Table {
	t := &Table{
		schema:  schema,
		cols:    make(map[string]int, len(schema.Attrs)),
		columns: make([]column, len(schema.Attrs)),
	}
	for i, a := range schema.Attrs {
		t.cols[a.Name] = i
	}
	for _, u := range schema.Uniques {
		idx := make([]int, 0, u.Len())
		for _, name := range u.Names() {
			idx = append(idx, t.cols[name])
		}
		t.uniq = append(t.uniq, &uniqIndex{idx: idx})
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *relation.Schema { return t.schema }

// Version reports the mutation counter. It changes on every Insert or
// InsertUnchecked; cached statistics derived from the extension are valid
// exactly as long as the (pointer, version) pair they were built against
// still describes the relation.
func (t *Table) Version() uint64 { return t.version }

// Len reports the number of tuples.
func (t *Table) Len() int { return t.nrows }

// Row returns the i-th tuple. Every call materializes a fresh row;
// iteration-heavy consumers should use ReadRow with a reused buffer
// instead.
func (t *Table) Row(i int) Row { return t.ReadRow(i, make(Row, len(t.columns))) }

// ReadRow decodes the i-th tuple into buf (grown when too small). The
// returned row is only valid until the next ReadRow with the same buffer;
// the caller must not modify or retain it.
func (t *Table) ReadRow(i int, buf Row) Row {
	t.ensureAll()
	if len(buf) < len(t.columns) {
		buf = make(Row, len(t.columns))
	}
	buf = buf[:len(t.columns)]
	for c := range t.columns {
		col := &t.columns[c]
		if code := col.codes[i]; code >= 0 {
			buf[c] = col.dict[code]
		} else {
			buf[c] = value.Null
		}
	}
	return buf
}

// Value returns the single attribute value at (row i, column col) without
// materializing the tuple.
func (t *Table) Value(i, col int) value.Value {
	t.ensureCol(col)
	c := &t.columns[col]
	if code := c.codes[i]; code >= 0 {
		return c.dict[code]
	}
	return value.Null
}

// ColIndex returns the column index of the named attribute.
func (t *Table) ColIndex(name string) (int, bool) {
	i, ok := t.cols[name]
	return i, ok
}

// colIndexes resolves attribute names to column indexes, erroring on
// unknown names.
func (t *Table) colIndexes(attrs []string) ([]int, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		c, ok := t.cols[a]
		if !ok {
			return nil, fmt.Errorf("table %s: unknown attribute %q", t.schema.Name, a)
		}
		idx[i] = c
	}
	return idx, nil
}

// keyOf builds the composite grouping key of a free-standing row over the
// given columns. hasNull reports whether any participating value is NULL.
func keyOf(row Row, idx []int) (key string, hasNull bool) {
	var b strings.Builder
	for _, c := range idx {
		v := row[c]
		if v.IsNull() {
			hasNull = true
		}
		b.WriteString(v.Key())
		b.WriteByte(0x1f)
	}
	return b.String(), hasNull
}

// appendRowKey appends the composite grouping key of stored row i over
// the resolved columns to b, stopping early on the first NULL. The bytes
// equal keyOf's for the decoded row: the canonical value.AppendKey
// encoding plus a 0x1f terminator per attribute.
func (t *Table) appendRowKey(b []byte, i int, idx []int) (key []byte, hasNull bool) {
	t.ensureCols(idx)
	for _, c := range idx {
		col := &t.columns[c]
		code := col.codes[i]
		if code < 0 {
			return b, true
		}
		b = col.dict[code].AppendKey(b)
		b = append(b, 0x1f)
	}
	return b, false
}

// Insert appends a tuple after checking arity, types, NOT NULL and UNIQUE
// constraints. Type checking coerces where value.Coerce allows it. The
// row is dictionary-encoded only after every check passed, so failed
// inserts never pollute the column dictionaries (the single-attribute
// distinct count is the dictionary length).
//
// UNIQUE constraints are checked in declaration order, and each one a
// row passes is registered before the next is checked: a UNIQUE key may
// not be NULL (the paper's SQL convention), and a key equal (under
// value.Key) to a registered one is a violation naming the registered
// row. A rejected row therefore leaves the registrations of the
// constraints before the one it failed behind (see registerPhantoms).
func (t *Table) Insert(row Row) error {
	if len(row) != len(t.schema.Attrs) {
		return fmt.Errorf("table %s: arity %d, want %d", t.schema.Name, len(row), len(t.schema.Attrs))
	}
	t.ensureMutable()
	stored := make(Row, len(row))
	for i, a := range t.schema.Attrs {
		v := row[i]
		if !v.IsNull() && v.Kind() != a.Type {
			coerced, ok := value.Coerce(v, a.Type)
			if !ok {
				return fmt.Errorf("table %s: attribute %s: cannot store %v as %v",
					t.schema.Name, a.Name, v.Kind(), a.Type)
			}
			v = coerced
		}
		if v.IsNull() && a.NotNull {
			return fmt.Errorf("table %s: attribute %s is NOT NULL", t.schema.Name, a.Name)
		}
		stored[i] = v
	}
	// Probe every constraint by dictionary code before touching storage. A key value that was never interned cannot be a
	// duplicate of a stored row, so rejected rows do not pollute the
	// dictionaries (len(dict) is the single-attribute distinct count);
	// only the value-keyed phantom registrations of previously rejected
	// rows require a string probe, and only when any exist.
	for ui, u := range t.uniq {
		hasNull := false
		for _, c := range u.idx {
			if stored[c].IsNull() {
				hasNull = true
				break
			}
		}
		if hasNull {
			t.registerPhantoms(stored, ui)
			return fmt.Errorf("table %s: NULL in key %v", t.schema.Name, t.schema.Uniques[ui])
		}
		codes := t.codeScratch[:0]
		allCoded := true
		for _, c := range u.idx {
			code, ok := t.columns[c].lookup(stored[c])
			if !ok {
				allCoded = false
				break
			}
			codes = append(codes, code)
		}
		t.codeScratch = codes
		if allCoded {
			if prev, dup := u.probeCodes(codes, &t.keyScratch); dup {
				t.registerPhantoms(stored, ui)
				return fmt.Errorf("table %s: UNIQUE(%v) violated by row %d", t.schema.Name, t.schema.Uniques[ui], prev)
			}
		}
		if len(u.byKey) > 0 {
			key, _ := keyOf(stored, u.idx)
			if prev, dup := u.probeByKey(key); dup {
				t.registerPhantoms(stored, ui)
				return fmt.Errorf("table %s: UNIQUE(%v) violated by row %d", t.schema.Name, t.schema.Uniques[ui], prev)
			}
		}
	}
	t.appendEncoded(stored)
	at := t.nrows - 1
	for _, u := range t.uniq {
		codes := t.codeScratch[:0]
		for _, c := range u.idx {
			codes = append(codes, t.columns[c].codes[at])
		}
		t.codeScratch = codes
		u.registerCodes(codes, at, &t.keyScratch)
	}
	t.version++
	t.noteRowMutation()
	return nil
}

// registerPhantoms records the value-keyed registrations Insert leaves
// behind for the constraints preceding the one a rejected row failed:
// constraint k is registered before k+1 is checked, and later
// duplicates of those keys must still be detected. The
// recorded index is the one the row would have received.
func (t *Table) registerPhantoms(stored Row, upto int) {
	for ui := 0; ui < upto; ui++ {
		u := t.uniq[ui]
		key, _ := keyOf(stored, u.idx)
		u.registerByKey(key, t.Len())
	}
}

// MustInsert is Insert that panics on error; for tests and generators.
func (t *Table) MustInsert(row Row) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// InsertUnchecked appends a tuple without constraint enforcement. The
// corruption injector uses it to plant integrity violations (the paper
// explicitly copes with corrupted extensions). The row must match the
// schema arity.
func (t *Table) InsertUnchecked(row Row) {
	t.ensureMutable()
	t.appendEncoded(row)
	t.version++
	t.noteRowMutation()
}

// noteRowMutation records a per-row extension change: the memoized
// ApproxBytes and the published epoch both describe a state that no
// longer exists.
func (t *Table) noteRowMutation() {
	t.abytesValid = false
	t.invalidateEpoch()
}

// Project returns the values of the given attributes for every tuple, in
// row order.
func (t *Table) Project(attrs []string) ([][]value.Value, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	n := t.Len()
	out := make([][]value.Value, n)
	for i := 0; i < n; i++ {
		vals := make([]value.Value, len(idx))
		for j, c := range idx {
			vals[j] = t.Value(i, c)
		}
		out[i] = vals
	}
	return out, nil
}

// CountNonNull counts the tuples with no NULL among the given attributes
// — the row base of uniqueness tests, FD supports and participation
// analysis. A single attribute is answered from the column's running
// counter; multi-attribute counts scan only the code vectors.
func (t *Table) CountNonNull(attrs []string) (int, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return 0, err
	}
	if len(idx) == 1 {
		return t.columns[idx[0]].nonNull, nil
	}
	t.ensureCols(idx)
	n := 0
scan:
	for i := 0; i < t.nrows; i++ {
		for _, c := range idx {
			if t.columns[c].codes[i] < 0 {
				continue scan
			}
		}
		n++
	}
	return n, nil
}

// DistinctCount implements the paper's ‖r[X]‖: the number of distinct
// (NULL-free) value combinations over the given attributes, i.e. SQL
// "select count(distinct X) from R". Tuples with a NULL in X are skipped,
// matching COUNT(DISTINCT) semantics. A single attribute is answered in
// O(1) — the dictionary length — with no allocation at all.
func (t *Table) DistinctCount(attrs []string) (int, error) {
	if len(attrs) == 1 {
		if c, ok := t.cols[attrs[0]]; ok {
			// dictLen answers from restore metadata when the column
			// section is still deferred — the O(1) count never forces a
			// load.
			return t.dictLen(c), nil
		}
		return 0, fmt.Errorf("table %s: unknown attribute %q", t.schema.Name, attrs[0])
	}
	p, err := t.Projection(attrs)
	if err != nil {
		return 0, err
	}
	return p.Len(), nil
}

// intSet builds the distinct non-NULL int64 set of a single attribute; ok
// is false when the attribute is unknown or holds non-integer values.
func (t *Table) intSet(attr string) (map[int64]struct{}, bool) {
	col, ok := t.cols[attr]
	if !ok {
		return nil, false
	}
	c := &t.columns[col]
	if c.nonInt {
		return nil, false
	}
	t.ensureCol(col)
	set := make(map[int64]struct{}, len(c.dict))
	for _, v := range c.dict {
		set[v.Int()] = struct{}{}
	}
	return set, true
}

// DistinctSet returns the set of distinct NULL-free composite keys over the
// given attributes, keyed canonically.
func (t *Table) DistinctSet(attrs []string) (map[string]struct{}, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	set := make(map[string]struct{})
	var scratch []byte
	n := t.Len()
	for i := 0; i < n; i++ {
		key, hasNull := t.appendRowKey(scratch[:0], i, idx)
		scratch = key
		if hasNull {
			continue
		}
		set[string(key)] = struct{}{}
	}
	return set, nil
}

// GroupRows builds the hashed projection index of the table over the
// given attributes: the row indexes grouped by distinct NULL-free
// composite key, keyed exactly like DistinctSet. Projection is the same
// index in the leaner form the stats cache memoizes; GroupRows remains
// for consumers that want the keyed map directly.
func (t *Table) GroupRows(attrs []string) (map[string][]int32, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	// The composite key is built into a reused scratch buffer and looked
	// up via the no-allocation string-conversion form; only the first
	// occurrence of each distinct key materializes a string. Group slices
	// live behind an id indirection so rows append without re-hashing the
	// key into the result map.
	index := make(map[string]int32)
	var slices [][]int32
	var scratch []byte
	n := t.Len()
	for i := 0; i < n; i++ {
		key, hasNull := t.appendRowKey(scratch[:0], i, idx)
		scratch = key
		if hasNull {
			continue
		}
		id, ok := index[string(key)]
		if !ok {
			id = int32(len(slices))
			index[string(key)] = id
			slices = append(slices, nil)
		}
		slices[id] = append(slices[id], int32(i))
	}
	groups := make(map[string][]int32, len(index))
	for k, id := range index {
		groups[k] = slices[id]
	}
	return groups, nil
}

// Projection is the hashed projection index in its reusable form: a
// dictionary of distinct NULL-free composite keys mapping to dense group
// ids, plus the row → group-id vector. It carries the same information
// as GroupRows without materializing per-group row slices, which is why
// the stats cache memoizes this representation — Len is the paper's
// ‖r[X]‖, the dictionary answers join and containment queries, and
// RowGroup drives the FD checks.
//
// The dictionary is derived lazily (see columnar.go): counting consumers
// never pay for it. Group ids are dense, in first-occurrence row order,
// -1 for rows with a NULL among the attributes — the numbering a
// value-keyed scan over the rows assigns.
type Projection struct {
	RowGroup []int32 // row index → group id, -1 for NULL rows
	NonNull  int     // rows with no NULL among the attributes

	groups int // number of distinct groups
	// denseSteps/mapSteps record how many refinement steps the build ran
	// through each remapping strategy; the stats cache mirrors them into
	// the observability counters.
	denseSteps, mapSteps int64
	// Exactly one dictionary flavor is populated (possibly lazily):
	// ints for a single all-integer attribute, strs otherwise.
	strs map[string]int32
	ints map[int64]int32
	lazy *lazyDict
	// repsV caches the group → representative-row vector (see
	// delta.go Reps); repsOnce guards its concurrent derivation.
	repsOnce sync.Once
	repsV    []int32
}

// RefineSteps reports how many refinement steps this projection's build
// executed through the dense direct-addressed strategy and through the
// sparse map fallback. Zero for single-attribute builds.
func (p *Projection) RefineSteps() (dense, mapped int64) {
	return p.denseSteps, p.mapSteps
}

// Len returns the number of distinct groups — the paper's ‖r[X]‖.
func (p *Projection) Len() int { return p.groups }

// IntDict returns the int64 → group-id dictionary, or nil when the
// projection is not int-flavored (multi-attribute, or a column holding
// non-integer values). The caller must treat it as read-only.
func (p *Projection) IntDict() map[int64]int32 {
	if p.lazy.intFlavor {
		p.buildLazy()
	}
	return p.ints
}

// StrDict returns the canonical composite-key → group-id dictionary, or
// nil when the projection is int-flavored. The caller must treat it as
// read-only.
func (p *Projection) StrDict() map[string]int32 {
	if !p.lazy.intFlavor {
		p.buildLazy()
	}
	return p.strs
}

// Projection builds the projection index over attrs: pure integer
// arithmetic over the code vectors (see columnarProjection). The
// dictionary is int-flavored — raw int64 values — for a single attribute
// holding only integers, and otherwise keyed by the canonical
// composite-key encoding shared with DistinctSet and GroupRows.
func (t *Table) Projection(attrs []string) (*Projection, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	return t.columnarProjection(idx), nil
}

// ProjectionFrom builds the projection index over attrs starting from an
// already-built projection of the prefix attrs[:prefixLen], skipping the
// refinement steps the prefix already paid for. The prefix must have been
// built by this table over exactly attrs[:prefixLen]; callers are
// responsible for staleness (the stats cache validates the table pointer
// and version before reusing a prefix). As a backstop, a prefix whose row
// vector no longer matches the table length — every mutation grows it —
// is ignored and the projection is rebuilt from scratch. Group ids are
// bit-identical to a from-scratch Projection over attrs: refinement
// assigns ids in first-occurrence row order at every step, so the result
// depends only on the partition refined, not on where refinement started
// (pinned by TestProjectionFromPrefixEquivalence).
func (t *Table) ProjectionFrom(prefix *Projection, prefixLen int, attrs []string) (*Projection, error) {
	if prefixLen < 1 || prefixLen > len(attrs) {
		return nil, fmt.Errorf("table %s: prefix length %d out of range for %v", t.schema.Name, prefixLen, attrs)
	}
	if prefix == nil || len(prefix.RowGroup) != t.nrows {
		return t.Projection(attrs)
	}
	if prefixLen == len(attrs) {
		return prefix, nil
	}
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	return t.refineFrom(prefix.RowGroup, prefix.groups, idx, prefixLen), nil
}

// DistinctRows returns one representative projected row per distinct
// NULL-free combination, sorted deterministically.
func (t *Table) DistinctRows(attrs []string) ([][]value.Value, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{})
	var out [][]value.Value
	var scratch []byte
	n := t.Len()
	for i := 0; i < n; i++ {
		key, hasNull := t.appendRowKey(scratch[:0], i, idx)
		scratch = key
		if hasNull {
			continue
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		vals := make([]value.Value, len(idx))
		for j, c := range idx {
			vals[j] = t.Value(i, c)
		}
		out = append(out, vals)
	}
	sort.Slice(out, func(i, j int) bool { return compareRows(out[i], out[j]) < 0 })
	return out, nil
}

func compareRows(a, b []value.Value) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// JoinDistinctCount implements ‖r_k[A_k] ⋈ r_l[A_l]‖: the number of
// distinct value combinations shared by both projections — the size of the
// intersection of the two distinct sets. This is exactly the N_kl quantity
// of the IND-Discovery algorithm.
func JoinDistinctCount(tk *Table, ak []string, tl *Table, al []string) (int, error) {
	if len(ak) != len(al) {
		return 0, fmt.Errorf("table: equi-join arity mismatch: %v vs %v", ak, al)
	}
	// Integer fast path mirroring DistinctCount's.
	if len(ak) == 1 {
		if ski, ok := tk.intSet(ak[0]); ok {
			if sli, ok := tl.intSet(al[0]); ok {
				if len(sli) < len(ski) {
					ski, sli = sli, ski
				}
				n := 0
				for v := range ski {
					if _, shared := sli[v]; shared {
						n++
					}
				}
				return n, nil
			}
		}
	}
	sk, err := tk.DistinctSet(ak)
	if err != nil {
		return 0, err
	}
	sl, err := tl.DistinctSet(al)
	if err != nil {
		return 0, err
	}
	if len(sl) < len(sk) {
		sk, sl = sl, sk
	}
	n := 0
	for key := range sk {
		if _, ok := sl[key]; ok {
			n++
		}
	}
	return n, nil
}

// ContainedIn reports whether the distinct projection of t over attrs is a
// subset of the distinct projection of other over otherAttrs, i.e. whether
// the inclusion dependency t[attrs] ≪ other[otherAttrs] is satisfied by the
// extension.
func ContainedIn(t *Table, attrs []string, other *Table, otherAttrs []string) (bool, error) {
	if len(attrs) != len(otherAttrs) {
		return false, fmt.Errorf("table: inclusion arity mismatch: %v vs %v", attrs, otherAttrs)
	}
	left, err := t.DistinctSet(attrs)
	if err != nil {
		return false, err
	}
	right, err := other.DistinctSet(otherAttrs)
	if err != nil {
		return false, err
	}
	for key := range left {
		if _, ok := right[key]; !ok {
			return false, nil
		}
	}
	return true, nil
}

// EquiJoinRows materializes the equi-join of two tables on the given
// attribute lists and returns pairs of row indexes (hash join). It exists
// for the SQL executor and for tests; the elicitation algorithms only need
// the distinct counts.
func EquiJoinRows(tk *Table, ak []string, tl *Table, al []string) ([][2]int, error) {
	if len(ak) != len(al) {
		return nil, fmt.Errorf("table: equi-join arity mismatch: %v vs %v", ak, al)
	}
	idxK, err := tk.colIndexes(ak)
	if err != nil {
		return nil, err
	}
	idxL, err := tl.colIndexes(al)
	if err != nil {
		return nil, err
	}
	build := make(map[string][]int)
	var scratch []byte
	for i, n := 0, tl.Len(); i < n; i++ {
		key, hasNull := tl.appendRowKey(scratch[:0], i, idxL)
		scratch = key
		if hasNull {
			continue
		}
		build[string(key)] = append(build[string(key)], i)
	}
	var out [][2]int
	for i, n := 0, tk.Len(); i < n; i++ {
		key, hasNull := tk.appendRowKey(scratch[:0], i, idxK)
		scratch = key
		if hasNull {
			continue
		}
		for _, j := range build[string(key)] {
			out = append(out, [2]int{i, j})
		}
	}
	return out, nil
}

// Filter returns the indexes of rows for which pred is true. The row
// passed to pred is only valid for the duration of the call.
func (t *Table) Filter(pred func(Row) bool) []int {
	var out []int
	var buf Row
	n := t.Len()
	for i := 0; i < n; i++ {
		row := t.ReadRow(i, buf)
		buf = row
		if pred(row) {
			out = append(out, i)
		}
	}
	return out
}

// SortedRows returns all rows sorted by the full tuple order; it does not
// modify the table. Used for deterministic rendering.
func (t *Table) SortedRows() []Row {
	n := t.Len()
	out := make([]Row, n)
	for i := 0; i < n; i++ {
		out[i] = t.ReadRow(i, nil)
	}
	sort.Slice(out, func(i, j int) bool { return compareRows(out[i], out[j]) < 0 })
	return out
}

// CheckUnique verifies a UNIQUE constraint over the current extension and
// returns the indexes of the first offending pair, if any. It is used to
// audit corrupted extensions.
func (t *Table) CheckUnique(u relation.AttrSet) (ok bool, rowA, rowB int, err error) {
	idx, err := t.colIndexes(u.Names())
	if err != nil {
		return false, 0, 0, err
	}
	n := t.Len()
	seen := make(map[string]int, n)
	var scratch []byte
	for i := 0; i < n; i++ {
		key, hasNull := t.appendRowKey(scratch[:0], i, idx)
		scratch = key
		if hasNull {
			continue
		}
		if prev, dup := seen[string(key)]; dup {
			return false, prev, i, nil
		}
		seen[string(key)] = i
	}
	return true, 0, 0, nil
}

// Database binds a catalog to its extension: one table per relation. It is
// the (R, E, ∅) triple the method takes as input.
type Database struct {
	catalog *relation.Catalog
	tables  map[string]*Table
}

// NewDatabase creates a database with an empty table per catalog relation.
func NewDatabase(catalog *relation.Catalog) *Database {
	db := &Database{catalog: catalog, tables: make(map[string]*Table, catalog.Len())}
	for _, s := range catalog.Schemas() {
		db.tables[s.Name] = New(s)
	}
	return db
}

// Catalog returns the database's catalog.
func (db *Database) Catalog() *relation.Catalog { return db.catalog }

// Table returns the extension of the named relation.
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// MustTable is Table that panics when the relation is unknown.
func (db *Database) MustTable(name string) *Table {
	t, ok := db.tables[name]
	if !ok {
		panic(fmt.Sprintf("table: unknown relation %q", name))
	}
	return t
}

// AddRelation registers a new (empty) relation created during the method
// (the set S of Section 6.1).
func (db *Database) AddRelation(s *relation.Schema) error {
	if err := db.catalog.Add(s); err != nil {
		return err
	}
	db.tables[s.Name] = New(s)
	return nil
}

// ReplaceRelation swaps the schema registered under s.Name (keeping its
// catalog position) and installs a fresh empty table — migrated rows are
// re-encoded by Insert as they arrive. The
// previous table is returned so callers can migrate its data; the
// Restruct algorithm uses this when splitting attributes out of a
// relation.
func (db *Database) ReplaceRelation(s *relation.Schema) (*Table, error) {
	old, ok := db.tables[s.Name]
	if !ok {
		return nil, fmt.Errorf("table: cannot replace unknown relation %q", s.Name)
	}
	if err := db.catalog.Replace(s); err != nil {
		return nil, err
	}
	db.tables[s.Name] = New(s)
	return old, nil
}

// RemoveRelation drops a relation and its extension. Used by the
// incremental re-validation path to retract NEI concept relations whose
// join no longer supports them.
func (db *Database) RemoveRelation(name string) error {
	if err := db.catalog.Remove(name); err != nil {
		return err
	}
	delete(db.tables, name)
	return nil
}

// TotalRows reports the number of tuples across all relations.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}

// valueBytes estimates the resident size of one stored value: the boxed
// Value struct plus any string payload it pins.
func valueBytes(v value.Value) int64 {
	const structBytes = 40 // kind + i + f + string header, padded
	if v.Kind() == value.KindString {
		return structBytes + int64(len(v.Str()))
	}
	return structBytes
}

// ApproxBytes estimates the resident heap size of the table's extension:
// code vectors, dictionaries and interning maps. It is a sizing heuristic (within a small
// constant factor of live heap, ignoring allocator slack and slice spare
// capacity), intended for admission control — the job server's per-job
// memory ceiling — not for accounting.
func (t *Table) ApproxBytes() int64 {
	if t.abytesValid {
		return t.abytes
	}
	var b int64
	for i := range t.columns {
		// A deferred column section is costed from its restore metadata
		// so admission control does not force every column resident.
		if !t.colLoaded(i) {
			b += t.lazy.bytes[i]
			continue
		}
		b += columnBytes(&t.columns[i])
	}
	// Memoize once every column is resident (the batch appender then
	// maintains the value by delta, see append.go). Frozen epochs stay
	// un-memoized: they may be scanned concurrently, and writing the
	// cache would race.
	if !t.frozen && (t.lazy == nil || t.lazy.pending.Load() == 0) {
		t.abytes, t.abytesValid = b, true
	}
	return b
}

// ApproxBytes sums ApproxBytes over every relation of the database.
func (db *Database) ApproxBytes() int64 {
	var b int64
	for _, t := range db.tables {
		b += t.ApproxBytes()
	}
	return b
}
