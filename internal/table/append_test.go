package table

import (
	"fmt"
	"math/rand"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// appendSchemas are the shapes the batch-vs-serial differential runs
// over: single-column keys (the dense uniq path), composite keys (the
// packed path), double constraints (phantom registrations on rejected
// rows), NOT NULL attributes, and a constraint-free relation.
func appendSchemas(t *testing.T) []*relation.Schema {
	t.Helper()
	mk := func(name string, attrs []relation.Attribute, uniques ...relation.AttrSet) *relation.Schema {
		s, err := relation.NewSchema(name, attrs, uniques...)
		if err != nil {
			t.Fatalf("schema %s: %v", name, err)
		}
		return s
	}
	return []*relation.Schema{
		mk("single",
			[]relation.Attribute{
				{Name: "id", Type: value.KindInt},
				{Name: "v", Type: value.KindString},
			},
			relation.NewAttrSet("id")),
		mk("multi",
			[]relation.Attribute{
				{Name: "a", Type: value.KindInt},
				{Name: "b", Type: value.KindString},
				{Name: "c", Type: value.KindFloat},
			},
			relation.NewAttrSet("a", "b")),
		mk("double",
			[]relation.Attribute{
				{Name: "id", Type: value.KindInt},
				{Name: "code", Type: value.KindString},
				{Name: "x", Type: value.KindInt},
			},
			relation.NewAttrSet("id"), relation.NewAttrSet("code", "x")),
		mk("notnull",
			[]relation.Attribute{
				{Name: "id", Type: value.KindInt},
				{Name: "req", Type: value.KindString, NotNull: true},
			},
			relation.NewAttrSet("id")),
		mk("free",
			[]relation.Attribute{
				{Name: "p", Type: value.KindInt},
				{Name: "q", Type: value.KindInt},
			}),
	}
}

// randomRow draws values from deliberately small domains so duplicate
// keys, NULLs and repeated dictionary entries all occur.
func randomRow(rng *rand.Rand, s *relation.Schema) Row {
	row := make(Row, len(s.Attrs))
	for i, a := range s.Attrs {
		if rng.Intn(6) == 0 {
			row[i] = value.Null
			continue
		}
		switch a.Type {
		case value.KindInt:
			row[i] = value.NewInt(int64(rng.Intn(12)))
		case value.KindFloat:
			row[i] = value.NewFloat(float64(rng.Intn(8)) / 2)
		default:
			row[i] = value.NewString(fmt.Sprintf("s%d", rng.Intn(10)))
		}
	}
	return row
}

// diffTables compares every observable and internal piece of engine
// state; "" means identical.
func diffTables(a, b *Table) string {
	if a.nrows != b.nrows {
		return fmt.Sprintf("rows: %d vs %d", a.nrows, b.nrows)
	}
	if a.version != b.version {
		return fmt.Sprintf("version: %d vs %d", a.version, b.version)
	}
	for ci := range a.columns {
		ca, cb := &a.columns[ci], &b.columns[ci]
		if len(ca.codes) != len(cb.codes) {
			return fmt.Sprintf("col %d: %d vs %d codes", ci, len(ca.codes), len(cb.codes))
		}
		for i := range ca.codes {
			if ca.codes[i] != cb.codes[i] {
				return fmt.Sprintf("col %d row %d: code %d vs %d", ci, i, ca.codes[i], cb.codes[i])
			}
		}
		if len(ca.dict) != len(cb.dict) {
			return fmt.Sprintf("col %d: dict %d vs %d", ci, len(ca.dict), len(cb.dict))
		}
		for i := range ca.dict {
			if !ca.dict[i].Equal(cb.dict[i]) {
				return fmt.Sprintf("col %d: dict[%d] %v vs %v", ci, i, ca.dict[i], cb.dict[i])
			}
		}
		if ca.nonNull != cb.nonNull || ca.nonInt != cb.nonInt {
			return fmt.Sprintf("col %d: nonNull/nonInt %d/%v vs %d/%v", ci, ca.nonNull, ca.nonInt, cb.nonNull, cb.nonInt)
		}
		if len(ca.ints) != len(cb.ints) || len(ca.keys) != len(cb.keys) {
			return fmt.Sprintf("col %d: intern maps differ", ci)
		}
		for k, v := range ca.ints {
			if cb.ints[k] != v {
				return fmt.Sprintf("col %d: ints[%d] %d vs %d", ci, k, v, cb.ints[k])
			}
		}
		for k, v := range ca.keys {
			if cb.keys[k] != v {
				return fmt.Sprintf("col %d: keys[%q] %d vs %d", ci, k, v, cb.keys[k])
			}
		}
	}
	for ui := range a.uniq {
		ua, ub := a.uniq[ui], b.uniq[ui]
		if len(ua.byKey) != len(ub.byKey) {
			return fmt.Sprintf("uniq %d: byKey %d vs %d", ui, len(ua.byKey), len(ub.byKey))
		}
		for k, v := range ua.byKey {
			if w, ok := ub.byKey[k]; !ok || w != v {
				return fmt.Sprintf("uniq %d: byKey[%q] %d vs %d", ui, k, v, w)
			}
		}
		reg := func(u *uniqIndex) map[int32]int32 {
			m := make(map[int32]int32)
			for c, r := range u.dense {
				if r >= 0 {
					m[int32(c)] = r
				}
			}
			return m
		}
		ra, rb := reg(ua), reg(ub)
		if len(ra) != len(rb) {
			return fmt.Sprintf("uniq %d: dense %d vs %d registrations", ui, len(ra), len(rb))
		}
		for c, r := range ra {
			if rb[c] != r {
				return fmt.Sprintf("uniq %d: dense[%d] %d vs %d", ui, c, r, rb[c])
			}
		}
		if len(ua.packed) != len(ub.packed) {
			return fmt.Sprintf("uniq %d: packed %d vs %d", ui, len(ua.packed), len(ub.packed))
		}
		for k, v := range ua.packed {
			if ub.packed[k] != v {
				return fmt.Sprintf("uniq %d: packed[%q] %d vs %d", ui, k, v, ub.packed[k])
			}
		}
	}
	return ""
}

// loadSerialRef replicates the tolerant loader's per-row reference path:
// Insert, and on violation count + InsertUnchecked.
func loadSerialRef(t *Table, rows []Row) int {
	violations := 0
	for _, r := range rows {
		if err := t.Insert(r); err != nil {
			violations++
			t.InsertUnchecked(r)
		}
	}
	return violations
}

// loadBatches splits rows into chunks of the given size and appends them
// through the batch API.
func loadBatches(t *Table, rows []Row, chunk int, strict bool) (int, error) {
	ap := t.NewAppender()
	total := 0
	for at := 0; at < len(rows); at += chunk {
		end := at + chunk
		if end > len(rows) {
			end = len(rows)
		}
		enc := NewChunkEncoder(t)
		for _, r := range rows[at:end] {
			if err := enc.AppendRow(r); err != nil {
				return total, err
			}
		}
		v, err := ap.AppendBatch(enc, strict)
		total += v
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TestAppendBatchDifferential drives random tolerant loads through the
// per-row reference path and the batch appender across chunk sizes and
// requires bit-identical engine state and violation counts.
func TestAppendBatchDifferential(t *testing.T) {
	for _, schema := range appendSchemas(t) {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 40 + rng.Intn(120)
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = randomRow(rng, schema)
			}
			ref := New(schema)
			wantViol := loadSerialRef(ref, rows)
			for _, chunk := range []int{1, 7, 32, len(rows)} {
				got := New(schema)
				gotViol, err := loadBatches(got, rows, chunk, false)
				if err != nil {
					t.Fatalf("%s seed %d chunk %d: %v", schema.Name, seed, chunk, err)
				}
				if gotViol != wantViol {
					t.Fatalf("%s seed %d chunk %d: %d violations, want %d",
						schema.Name, seed, chunk, gotViol, wantViol)
				}
				if d := diffTables(ref, got); d != "" {
					t.Fatalf("%s seed %d chunk %d: %s", schema.Name, seed, chunk, d)
				}
			}
		}
	}
}

// TestAppendBatchStrictDifferential compares strict batch loads against
// the per-row strict reference: identical error text, identical number
// of rows retained, identical engine state after the failure — including
// the rolled-back dictionaries and the phantom registrations the
// rejected row leaves behind.
func TestAppendBatchStrictDifferential(t *testing.T) {
	for _, schema := range appendSchemas(t) {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			n := 30 + rng.Intn(80)
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = randomRow(rng, schema)
			}
			ref := New(schema)
			var refErr error
			for _, r := range rows {
				if refErr = ref.Insert(r); refErr != nil {
					break
				}
			}
			for _, chunk := range []int{1, 5, 17, len(rows)} {
				got := New(schema)
				_, gotErr := loadBatches(got, rows, chunk, true)
				switch {
				case refErr == nil && gotErr != nil:
					t.Fatalf("%s seed %d chunk %d: unexpected error %v", schema.Name, seed, chunk, gotErr)
				case refErr != nil && gotErr == nil:
					t.Fatalf("%s seed %d chunk %d: missing error %v", schema.Name, seed, chunk, refErr)
				case refErr != nil && gotErr.Error() != refErr.Error():
					t.Fatalf("%s seed %d chunk %d: error %q, want %q",
						schema.Name, seed, chunk, gotErr, refErr)
				}
				if d := diffTables(ref, got); d != "" {
					t.Fatalf("%s seed %d chunk %d: %s", schema.Name, seed, chunk, d)
				}
			}
		}
	}
}

// TestAppendBatchPhantomAcrossBatches pins the subtlest interaction: a
// row rejected by its *second* constraint in one strict batch leaves a
// value-keyed phantom registration of its first key, and a later batch
// inserting that key must still trip over it.
func TestAppendBatchPhantomAcrossBatches(t *testing.T) {
	schema := appendSchemas(t)[2] // "double": UNIQUE(id), UNIQUE(code,x)
	tab := New(schema)
	mkRow := func(id int64, code string, x int64) Row {
		return Row{value.NewInt(id), value.NewString(code), value.NewInt(x)}
	}
	enc := NewChunkEncoder(tab)
	ap := tab.NewAppender()
	for _, r := range []Row{mkRow(1, "a", 1), mkRow(2, "b", 1), mkRow(3, "b", 1)} {
		if err := enc.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	// Row 2 (id=3) violates UNIQUE(code,x) after registering id=3 under
	// UNIQUE(id); strict rollback keeps rows 0..1 and the phantom.
	if _, err := ap.AppendBatch(enc, true); err == nil {
		t.Fatal("want UNIQUE(code,x) violation")
	}
	if tab.Len() != 2 {
		t.Fatalf("rows after rollback = %d, want 2", tab.Len())
	}
	// id=3 was never stored, but its phantom registration must block a
	// fresh insert of id=3 — exactly as per-row Inserts would.
	ref := New(schema)
	for _, r := range []Row{mkRow(1, "a", 1), mkRow(2, "b", 1)} {
		if err := ref.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	refErr := ref.Insert(mkRow(3, "b", 1)) // leaves the same phantom
	if refErr == nil {
		t.Fatal("reference: want violation")
	}
	gotErr := tab.Insert(mkRow(3, "zz", 9))
	wantErr := ref.Insert(mkRow(3, "zz", 9))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("phantom probe: got %v, want %v", gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("phantom probe: got %q, want %q", gotErr, wantErr)
	}
	if d := diffTables(ref, tab); d != "" {
		t.Fatalf("state diverged: %s", d)
	}
}

// TestAppendBatchSchemaMismatch guards the encoder/table pairing.
func TestAppendBatchSchemaMismatch(t *testing.T) {
	ss := appendSchemas(t)
	a, b := New(ss[0]), New(ss[1])
	enc := NewChunkEncoder(b)
	if _, err := a.NewAppender().AppendBatch(enc, false); err == nil {
		t.Fatal("want schema mismatch error")
	}
}

// TestChunkEncoderReset checks that a reset encoder reuses cleanly.
func TestChunkEncoderReset(t *testing.T) {
	schema := appendSchemas(t)[0]
	tab := New(schema)
	enc := NewChunkEncoder(tab)
	ap := tab.NewAppender()
	for round := 0; round < 3; round++ {
		enc.Reset()
		for i := 0; i < 5; i++ {
			row := Row{value.NewInt(int64(round*5 + i)), value.NewString("v")}
			if err := enc.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if v, err := ap.AppendBatch(enc, true); err != nil || v != 0 {
			t.Fatalf("round %d: %d violations, err %v", round, v, err)
		}
	}
	if tab.Len() != 15 {
		t.Fatalf("rows = %d, want 15", tab.Len())
	}
}
