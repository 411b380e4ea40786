// Package exec evaluates the parsed SQL subset against the in-memory
// engine. It exists for two purposes: loading a database (DDL + INSERTs,
// i.e. reconstructing (R, E) from a dictionary dump) and answering the
// counting queries of the elicitation algorithms — plus enough SELECT
// evaluation to run the example applications end to end.
package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dbre/internal/relation"
	"dbre/internal/sql/ast"
	"dbre/internal/sql/parser"
	"dbre/internal/table"
	"dbre/internal/value"
)

// Result is the outcome of a SELECT: column labels plus rows.
type Result struct {
	Cols []string
	Rows [][]value.Value
}

// Len reports the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// String renders the result as a plain text table.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Cols, " | "))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		b.WriteString("\n" + strings.Join(parts, " | "))
	}
	return b.String()
}

// LoadScript parses and executes a script of CREATE TABLE / INSERT
// statements against a fresh database. SELECTs in the script are executed
// and discarded. It returns the database and any statement-level errors.
func LoadScript(src string) (*table.Database, []error) {
	db := table.NewDatabase(relation.MustCatalog())
	stmts, errs := parser.ParseScript(src)
	for _, s := range stmts {
		if err := Exec(db, s); err != nil {
			errs = append(errs, err)
		}
	}
	return db, errs
}

// MustLoadScript is LoadScript that panics on any error; for tests and
// generated workloads known to be well-formed.
func MustLoadScript(src string) *table.Database {
	db, errs := LoadScript(src)
	if len(errs) > 0 {
		panic(fmt.Sprintf("exec: loading script: %v", errs[0]))
	}
	return db
}

// Exec applies a statement to the database. SELECT results are discarded
// (use Query); UPDATE and DELETE are rejected — the method observes a
// database in operation, it never modifies it.
func Exec(db *table.Database, stmt ast.Statement) error {
	switch s := stmt.(type) {
	case *ast.CreateTable:
		return execCreate(db, s)
	case *ast.AlterTable:
		return execAlter(db, s)
	case *ast.Insert:
		return execInsert(db, s)
	case *ast.Select:
		_, err := Query(db, s)
		return err
	case *ast.Update, *ast.Delete:
		return fmt.Errorf("exec: refusing to modify the database under analysis: %s", stmt)
	default:
		return fmt.Errorf("exec: unsupported statement %T", stmt)
	}
}

func execCreate(db *table.Database, s *ast.CreateTable) error {
	attrs := make([]relation.Attribute, len(s.Columns))
	var uniques []relation.AttrSet
	for i, c := range s.Columns {
		attrs[i] = relation.Attribute{Name: c.Name, Type: c.Kind, NotNull: c.NotNull}
		if c.Unique {
			uniques = append(uniques, relation.NewAttrSet(c.Name))
		}
	}
	for _, u := range s.Uniques {
		uniques = append(uniques, relation.NewAttrSet(u...))
	}
	schema, err := relation.NewSchema(s.Name, attrs, uniques...)
	if err != nil {
		return err
	}
	return db.AddRelation(schema)
}

// execAlter applies an added constraint, verifying it against the current
// extension first: a declaration the data refutes is an error, matching
// what a DBMS would do.
func execAlter(db *table.Database, s *ast.AlterTable) error {
	tab, ok := db.Table(s.Table)
	if !ok {
		return fmt.Errorf("exec: ALTER of unknown relation %q", s.Table)
	}
	switch {
	case len(s.Unique) > 0 || len(s.PrimaryKey) > 0:
		cols := s.Unique
		if len(cols) == 0 {
			cols = s.PrimaryKey
		}
		u := relation.NewAttrSet(cols...)
		okU, a, b, err := tab.CheckUnique(u)
		if err != nil {
			return err
		}
		if !okU {
			return fmt.Errorf("exec: %s: UNIQUE(%v) violated by rows %d and %d", s.Table, u, a, b)
		}
		return tab.Schema().AddUnique(u)
	case s.FK != nil:
		ref, ok := db.Table(s.FK.RefTable)
		if !ok {
			return fmt.Errorf("exec: FOREIGN KEY references unknown relation %q", s.FK.RefTable)
		}
		holds, err := table.ContainedIn(tab, s.FK.Columns, ref, s.FK.RefCols)
		if err != nil {
			return err
		}
		if !holds {
			return fmt.Errorf("exec: %s: FOREIGN KEY (%v) REFERENCES %s violated by the extension",
				s.Table, s.FK.Columns, s.FK.RefTable)
		}
		// The engine keeps no FK registry: the paper's method never
		// consumes declared foreign keys (they are its *output*), so a
		// verified declaration is simply accepted.
		return nil
	default:
		return fmt.Errorf("exec: empty ALTER TABLE %s", s.Table)
	}
}

func execInsert(db *table.Database, s *ast.Insert) error {
	tab, ok := db.Table(s.Table)
	if !ok {
		return fmt.Errorf("exec: INSERT into unknown relation %q", s.Table)
	}
	schema := tab.Schema()
	cols := s.Columns
	if cols == nil {
		cols = schema.AttrSet().Names()
		// Schema order, not sorted order.
		cols = cols[:0]
		for _, a := range schema.Attrs {
			cols = append(cols, a.Name)
		}
	}
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		idx, ok := tab.ColIndex(c)
		if !ok {
			return fmt.Errorf("exec: INSERT into %s: unknown column %q", s.Table, c)
		}
		colIdx[i] = idx
	}
	// Rows are encoded into one batch per statement and committed through
	// the table's batch appender (multi-row INSERTs are how dictionary
	// dumps arrive). Strict AppendBatch reproduces Insert's sequential
	// semantics; a row that fails to *build* flushes the pending batch
	// first, so a constraint violation in an earlier row still wins —
	// exactly the serial row-by-row error order.
	enc := table.NewChunkEncoder(tab)
	ap := tab.NewAppender()
	flush := func() error {
		if enc.Len() == 0 {
			return nil
		}
		if _, err := ap.AppendBatch(enc, true); err != nil {
			var be *table.BatchError
			if errors.As(err, &be) {
				return be.Err
			}
			return err
		}
		enc.Reset()
		return nil
	}
	fail := func(buildErr error) error {
		if err := flush(); err != nil {
			return err
		}
		return buildErr
	}
	row := make(table.Row, len(schema.Attrs))
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(cols) {
			return fail(fmt.Errorf("exec: INSERT into %s: %d values for %d columns", s.Table, len(exprRow), len(cols)))
		}
		for i := range row {
			row[i] = value.Null
		}
		for i, e := range exprRow {
			lit, isLit := e.(ast.Literal)
			if !isLit {
				return fail(fmt.Errorf("exec: INSERT into %s: non-literal value %s", s.Table, e))
			}
			v := lit.Val
			if !v.IsNull() {
				want := schema.Attrs[colIdx[i]].Type
				coerced, canCoerce := value.Coerce(v, want)
				if !canCoerce {
					return fail(fmt.Errorf("exec: INSERT into %s.%s: cannot coerce %s to %v",
						s.Table, cols[i], v.SQL(), want))
				}
				v = coerced
			}
			row[colIdx[i]] = v
		}
		if err := enc.AppendRow(row); err != nil {
			return fail(err)
		}
	}
	return flush()
}

// binding is one FROM-clause table instance with its current row. buf is
// the reused decode buffer; row aliases it and is only valid until the
// next iteration of the binding's loop.
type binding struct {
	name string // alias or table name
	tab  *table.Table
	row  table.Row
	buf  table.Row
}

// env is the evaluation environment: the visible bindings, innermost last,
// plus the enclosing environment for correlated subqueries.
type env struct {
	bindings []*binding
	outer    *env
}

// lookup resolves a column reference, searching the innermost scope first.
func (e *env) lookup(ref ast.ColumnRef) (value.Value, error) {
	for scope := e; scope != nil; scope = scope.outer {
		var found *binding
		var col int
		for _, b := range scope.bindings {
			if ref.Table != "" && b.name != ref.Table {
				continue
			}
			idx, ok := b.tab.ColIndex(ref.Name)
			if !ok {
				continue
			}
			if found != nil {
				return value.Null, fmt.Errorf("exec: ambiguous column %s", ref)
			}
			found, col = b, idx
		}
		if found != nil {
			return found.row[col], nil
		}
	}
	return value.Null, fmt.Errorf("exec: unknown column %s", ref)
}

// Query evaluates a SELECT and returns its result.
func Query(db *table.Database, s *ast.Select) (*Result, error) {
	return query(db, s, nil)
}

// QueryString parses and evaluates a single SELECT.
func QueryString(db *table.Database, src string) (*Result, error) {
	stmt, err := parser.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*ast.Select)
	if !ok {
		return nil, fmt.Errorf("exec: not a SELECT: %s", stmt)
	}
	return Query(db, sel)
}

func query(db *table.Database, s *ast.Select, outer *env) (*Result, error) {
	// Gather the table instances: FROM items then JOIN items.
	type source struct {
		ref ast.TableRef
		on  ast.Expr // nil for plain FROM items
	}
	var sources []source
	for _, tr := range s.From {
		sources = append(sources, source{ref: tr})
	}
	for _, j := range s.Joins {
		sources = append(sources, source{ref: j.Table, on: j.On})
	}
	e := &env{outer: outer}
	var ons []ast.Expr
	for _, src := range sources {
		tab, ok := db.Table(src.ref.Name)
		if !ok {
			return nil, fmt.Errorf("exec: unknown relation %q", src.ref.Name)
		}
		e.bindings = append(e.bindings, &binding{name: src.ref.Binding(), tab: tab})
		if src.on != nil {
			ons = append(ons, src.on)
		}
	}

	res := &Result{}
	agg := newAggregator(s)
	res.Cols = agg.columns(e)

	// Nested-loop evaluation over the cross product.
	var walk func(depth int) error
	walk = func(depth int) error {
		if depth == len(e.bindings) {
			for _, on := range ons {
				ok, err := evalBool(db, on, e)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			if s.Where != nil {
				ok, err := evalBool(db, s.Where, e)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			return agg.accumulate(db, e)
		}
		b := e.bindings[depth]
		for i := 0; i < b.tab.Len(); i++ {
			b.row = b.tab.ReadRow(i, b.buf)
			b.buf = b.row
			if err := walk(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	res.Rows = agg.finish(s.Distinct)
	if len(s.OrderBy) > 0 && !agg.isCount && !agg.isCountD {
		if err := orderRows(res, s.OrderBy); err != nil {
			return nil, err
		}
	}

	if s.Intersect != nil {
		other, err := query(db, s.Intersect, outer)
		if err != nil {
			return nil, err
		}
		res.Rows = intersectRows(res.Rows, other.Rows)
	}
	return res, nil
}

// aggregator accumulates output rows, handling the COUNT forms.
type aggregator struct {
	sel       *ast.Select
	plainRows [][]value.Value
	countStar int
	distinct  map[string]struct{}
	isCount   bool
	isCountD  bool
}

func newAggregator(s *ast.Select) *aggregator {
	a := &aggregator{sel: s, distinct: make(map[string]struct{})}
	for _, it := range s.Items {
		if it.CountStar {
			a.isCount = true
		}
		if it.CountDistinct != nil {
			a.isCountD = true
		}
	}
	return a
}

func (a *aggregator) columns(e *env) []string {
	var cols []string
	for _, it := range a.sel.Items {
		switch {
		case it.Star:
			for _, b := range e.bindings {
				for _, attr := range b.tab.Schema().Attrs {
					cols = append(cols, attr.Name)
				}
			}
		case it.CountStar:
			cols = append(cols, "count(*)")
		case it.CountDistinct != nil:
			cols = append(cols, "count(distinct)")
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			cols = append(cols, it.Expr.String())
		}
	}
	return cols
}

func (a *aggregator) accumulate(db *table.Database, e *env) error {
	if a.isCount {
		a.countStar++
		return nil
	}
	if a.isCountD {
		for _, it := range a.sel.Items {
			if it.CountDistinct == nil {
				continue
			}
			var key strings.Builder
			hasNull := false
			for _, c := range it.CountDistinct {
				v, err := e.lookup(c)
				if err != nil {
					return err
				}
				if v.IsNull() {
					hasNull = true
				}
				key.WriteString(v.Key())
				key.WriteByte(0x1f)
			}
			if !hasNull {
				a.distinct[key.String()] = struct{}{}
			}
		}
		return nil
	}
	var row []value.Value
	for _, it := range a.sel.Items {
		if it.Star {
			for _, b := range e.bindings {
				row = append(row, b.row...)
			}
			continue
		}
		v, err := evalScalar(db, it.Expr, e)
		if err != nil {
			return err
		}
		row = append(row, v)
	}
	a.plainRows = append(a.plainRows, row)
	return nil
}

func (a *aggregator) finish(distinct bool) [][]value.Value {
	if a.isCount {
		return [][]value.Value{{value.NewInt(int64(a.countStar))}}
	}
	if a.isCountD {
		return [][]value.Value{{value.NewInt(int64(len(a.distinct)))}}
	}
	if !distinct {
		return a.plainRows
	}
	seen := make(map[string]struct{}, len(a.plainRows))
	var out [][]value.Value
	for _, row := range a.plainRows {
		k := rowKey(row)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, row)
	}
	return out
}

// orderRows sorts the result by the ORDER BY keys. Keys are resolved
// against the output columns — the exact label first ("p.name"), then the
// bare column name; unresolvable keys are ignored, matching the tolerance
// legacy report writers relied on.
func orderRows(res *Result, order []ast.OrderItem) error {
	type key struct {
		col  int
		desc bool
	}
	var keys []key
	for _, o := range order {
		idx := -1
		for i, c := range res.Cols {
			if c == o.Col.String() || c == o.Col.Name {
				idx = i
				break
			}
		}
		if idx >= 0 {
			keys = append(keys, key{col: idx, desc: o.Desc})
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		for _, k := range keys {
			c := res.Rows[i][k.col].Compare(res.Rows[j][k.col])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

func rowKey(row []value.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.Key())
		b.WriteByte(0x1f)
	}
	return b.String()
}

func intersectRows(a, b [][]value.Value) [][]value.Value {
	set := make(map[string]struct{}, len(b))
	for _, row := range b {
		set[rowKey(row)] = struct{}{}
	}
	seen := make(map[string]struct{})
	var out [][]value.Value
	for _, row := range a {
		k := rowKey(row)
		if _, ok := set[k]; !ok {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, row)
	}
	return out
}

// evalScalar evaluates a scalar expression under the environment.
func evalScalar(db *table.Database, ex ast.Expr, e *env) (value.Value, error) {
	switch x := ex.(type) {
	case ast.Literal:
		return x.Val, nil
	case ast.ColumnRef:
		return e.lookup(x)
	case ast.Param:
		return value.Null, fmt.Errorf("exec: unbound host variable %s", x)
	default:
		return value.Null, fmt.Errorf("exec: unsupported scalar %T", ex)
	}
}

// evalBool evaluates a predicate with SQL-ish semantics collapsed to
// two-valued logic: comparisons involving NULL are false.
func evalBool(db *table.Database, ex ast.Expr, e *env) (bool, error) {
	switch x := ex.(type) {
	case ast.And:
		l, err := evalBool(db, x.Left, e)
		if err != nil || !l {
			return false, err
		}
		return evalBool(db, x.Right, e)
	case ast.Or:
		l, err := evalBool(db, x.Left, e)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return evalBool(db, x.Right, e)
	case ast.Not:
		v, err := evalBool(db, x.Inner, e)
		return !v, err
	case ast.IsNull:
		v, err := evalScalar(db, x.Inner, e)
		if err != nil {
			return false, err
		}
		return v.IsNull() != x.Negate, nil
	case ast.Compare:
		return evalCompare(db, x, e)
	case ast.InList:
		v, err := evalScalar(db, x.Left, e)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return false, nil
		}
		for _, item := range x.Items {
			w, err := evalScalar(db, item, e)
			if err != nil {
				return false, err
			}
			if equalish(v, w) {
				return !x.Negate, nil
			}
		}
		return x.Negate, nil
	case ast.InSubquery:
		v, err := evalScalar(db, x.Left, e)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return false, nil
		}
		res, err := query(db, x.Sub, e)
		if err != nil {
			return false, err
		}
		for _, row := range res.Rows {
			if len(row) != 1 {
				return false, fmt.Errorf("exec: IN subquery returns %d columns", len(row))
			}
			if equalish(v, row[0]) {
				return !x.Negate, nil
			}
		}
		return x.Negate, nil
	case ast.Exists:
		res, err := query(db, x.Sub, e)
		if err != nil {
			return false, err
		}
		return (res.Len() > 0) != x.Negate, nil
	default:
		return false, fmt.Errorf("exec: unsupported predicate %T", ex)
	}
}

func evalCompare(db *table.Database, c ast.Compare, e *env) (bool, error) {
	l, err := evalScalar(db, c.Left, e)
	if err != nil {
		return false, err
	}
	r, err := evalScalar(db, c.Right, e)
	if err != nil {
		return false, err
	}
	if l.IsNull() || r.IsNull() {
		return false, nil
	}
	if c.Op == ast.OpLike {
		return likeMatch(l.String(), r.String()), nil
	}
	// Numeric cross-kind comparison via float coercion.
	if l.Kind() != r.Kind() {
		lf, okL := value.Coerce(l, value.KindFloat)
		rf, okR := value.Coerce(r, value.KindFloat)
		if okL && okR {
			l, r = lf, rf
		}
	}
	if l.Kind() != r.Kind() {
		return false, nil
	}
	cmp := l.Compare(r)
	switch c.Op {
	case ast.OpEQ:
		return cmp == 0, nil
	case ast.OpNEQ:
		return cmp != 0, nil
	case ast.OpLT:
		return cmp < 0, nil
	case ast.OpLTE:
		return cmp <= 0, nil
	case ast.OpGT:
		return cmp > 0, nil
	case ast.OpGTE:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("exec: unsupported comparison %v", c.Op)
	}
}

func equalish(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	if a.Kind() != b.Kind() {
		af, okA := value.Coerce(a, value.KindFloat)
		bf, okB := value.Coerce(b, value.KindFloat)
		if okA && okB {
			return af.Equal(bf)
		}
		return false
	}
	return a.Equal(b)
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	// Dynamic programming over positions.
	n, m := len(s), len(pattern)
	prev := make([]bool, n+1)
	cur := make([]bool, n+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		cur[0] = prev[0] && pattern[j-1] == '%'
		for i := 1; i <= n; i++ {
			switch pattern[j-1] {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == pattern[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}
