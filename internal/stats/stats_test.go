package stats_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// twoRelations builds a database with R(a,b,c) and S(x,y), R.a ⊆ S.x.
func twoRelations(t testing.TB) *table.Database {
	t.Helper()
	r := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindString},
	})
	s := relation.MustSchema("S", []relation.Attribute{
		{Name: "x", Type: value.KindInt},
		{Name: "y", Type: value.KindString},
	}, relation.NewAttrSet("x"))
	cat, err := relation.NewCatalog(r, s)
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDatabase(cat)
	rt := db.MustTable("R")
	for _, row := range []table.Row{
		{value.NewInt(1), value.NewInt(10), value.NewString("u")},
		{value.NewInt(1), value.NewInt(20), value.NewString("v")},
		{value.NewInt(2), value.NewInt(10), value.NewString("u")},
		{value.NewInt(3), value.Null, value.NewString("w")},
		{value.Null, value.NewInt(30), value.NewString("w")},
	} {
		if err := rt.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	st := db.MustTable("S")
	for i := int64(1); i <= 4; i++ {
		if err := st.Insert(table.Row{value.NewInt(i), value.NewString("d")}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCacheCountsMatchDirectScans(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	for _, attrs := range [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "a"}, {"a", "b", "c"}} {
		want, err := db.MustTable("R").DistinctCount(attrs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DistinctCount("R", attrs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("DistinctCount(R, %v) = %d, direct scan = %d", attrs, got, want)
		}
	}
	wantJoin, err := table.JoinDistinctCount(db.MustTable("R"), []string{"a"}, db.MustTable("S"), []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	gotJoin, err := c.JoinDistinctCount("R", []string{"a"}, "S", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if gotJoin != wantJoin {
		t.Errorf("JoinDistinctCount = %d, direct = %d", gotJoin, wantJoin)
	}
	wantIn, err := table.ContainedIn(db.MustTable("R"), []string{"a"}, db.MustTable("S"), []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	gotIn, err := c.ContainedIn("R", []string{"a"}, "S", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if gotIn != wantIn {
		t.Errorf("ContainedIn = %v, direct = %v", gotIn, wantIn)
	}
	// NULL-bearing rows are excluded from the projection, as in a direct
	// scan: R has 5 rows, one with NULL a and one with NULL b.
	if n, _ := c.NonNullRows("R", []string{"a"}); n != 4 {
		t.Errorf("NonNullRows(a) = %d, want 4", n)
	}
	if n, _ := c.NonNullRows("R", []string{"a", "b"}); n != 3 {
		t.Errorf("NonNullRows(a,b) = %d, want 3", n)
	}
}

// TestRowGroupsMatchGroupRows cross-checks the cache's projection views
// — RowGroups, GroupSlices, KeySet — against the table's own GroupRows
// on both the int fast path ({a}) and the generic string encoding.
func TestRowGroupsMatchGroupRows(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	tab := db.MustTable("R")
	for _, attrs := range [][]string{{"a"}, {"c"}, {"a", "b"}, {"a", "b", "c"}} {
		want, err := tab.GroupRows(attrs)
		if err != nil {
			t.Fatal(err)
		}
		rg, n, err := c.RowGroups("R", attrs)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Errorf("RowGroups(%v) groups = %d, GroupRows = %d", attrs, n, len(want))
		}
		if len(rg) != tab.Len() {
			t.Fatalf("RowGroups(%v) has %d entries for %d rows", attrs, len(rg), tab.Len())
		}
		groups, err := c.GroupSlices("R", attrs)
		if err != nil {
			t.Fatal(err)
		}
		// Each cached group must appear, row for row, in GroupRows.
		byFirst := make(map[int32][]int32)
		for _, g := range want {
			byFirst[g[0]] = g
		}
		for id, g := range groups {
			if len(g) == 0 {
				t.Fatalf("GroupSlices(%v) group %d is empty", attrs, id)
			}
			ref := byFirst[g[0]]
			if len(ref) != len(g) {
				t.Fatalf("GroupSlices(%v) group %d = %v, GroupRows has %v", attrs, id, g, ref)
			}
			for j := range g {
				if g[j] != ref[j] {
					t.Fatalf("GroupSlices(%v) group %d = %v, GroupRows has %v", attrs, id, g, ref)
				}
			}
			for _, i := range g {
				if rg[i] != int32(id) {
					t.Fatalf("row %d is in group %d but RowGroups says %d", i, id, rg[i])
				}
			}
		}
		set, err := c.KeySet("R", attrs)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != len(want) {
			t.Errorf("KeySet(%v) has %d keys, want %d", attrs, len(set), len(want))
		}
		for k := range want {
			if _, ok := set[k]; !ok {
				t.Errorf("KeySet(%v) is missing GroupRows key %q", attrs, k)
			}
		}
	}
}

func TestCacheHitMissMetrics(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	if _, err := c.DistinctCount("R", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DistinctCount("R", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.KeySet("R", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Misses != 1 || m.Hits != 2 {
		t.Errorf("metrics = %+v, want 1 miss / 2 hits", m)
	}
	// The key is order-sensitive: (a,b) and (b,a) are distinct entries.
	// Prefix reuse adds one internal entry for the (b) prefix of (b,a) —
	// the (a) prefix of (a,b) is already cached and counts as a prefix
	// hit — without touching the consumer-facing hit/miss counters.
	if _, err := c.DistinctCount("R", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DistinctCount("R", []string{"b", "a"}); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Misses != 3 || m.Entries != 4 || m.PrefixHits != 1 {
		t.Errorf("metrics after order-sensitive lookups = %+v", m)
	}
	if _, err := c.DistinctCount("nope", []string{"a"}); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestInsertInvalidates(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	before, err := c.DistinctCount("S", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if before != 4 {
		t.Fatalf("distinct x = %d, want 4", before)
	}
	if err := db.MustTable("S").Insert(table.Row{value.NewInt(99), value.NewString("d")}); err != nil {
		t.Fatal(err)
	}
	after, err := c.DistinctCount("S", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if after != 5 {
		t.Errorf("distinct x after Insert = %d, want 5", after)
	}
	if m := c.Metrics(); m.Stale != 1 {
		t.Errorf("Stale = %d, want 1", m.Stale)
	}
}

func TestInsertUncheckedInvalidates(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	if _, err := c.DistinctCount("R", []string{"b"}); err != nil {
		t.Fatal(err)
	}
	db.MustTable("R").InsertUnchecked(table.Row{value.NewInt(7), value.NewInt(777), value.NewString("z")})
	got, err := c.DistinctCount("R", []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.MustTable("R").DistinctCount([]string{"b"})
	if got != want {
		t.Errorf("distinct b after InsertUnchecked = %d, want %d", got, want)
	}
}

func TestReplaceRelationInvalidates(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	if n, _ := c.DistinctCount("S", []string{"x"}); n != 4 {
		t.Fatalf("distinct x = %d, want 4", n)
	}
	// Restruct-style replacement: fresh schema, fresh (empty) table.
	s2 := relation.MustSchema("S", []relation.Attribute{
		{Name: "x", Type: value.KindInt},
		{Name: "y", Type: value.KindString},
	}, relation.NewAttrSet("x"))
	if _, err := db.ReplaceRelation(s2); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.DistinctCount("S", []string{"x"}); n != 0 {
		t.Errorf("distinct x after ReplaceRelation = %d, want 0 (empty table)", n)
	}
	if m := c.Metrics(); m.Stale != 1 {
		t.Errorf("Stale = %d, want 1", m.Stale)
	}
}

func TestExplicitInvalidation(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	for _, a := range []string{"a", "b", "c"} {
		if _, err := c.DistinctCount("R", []string{a}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.DistinctCount("S", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	c.Invalidate("R")
	m := c.Metrics()
	if m.Entries != 1 || m.Invalidations != 3 {
		t.Errorf("after Invalidate(R): %+v, want 1 entry / 3 invalidations", m)
	}
	c.InvalidateAll()
	m = c.Metrics()
	if m.Entries != 0 || m.Invalidations != 4 {
		t.Errorf("after InvalidateAll: %+v, want 0 entries / 4 invalidations", m)
	}
	// Dropped entries rebuild correctly.
	if n, _ := c.DistinctCount("S", []string{"x"}); n != 4 {
		t.Errorf("rebuilt distinct x = %d, want 4", n)
	}
}

func TestCacheKeySeparatorCollisions(t *testing.T) {
	// The cache key is length-prefixed, so splits of the same concatenated
	// bytes must not share an entry: ("R", [ab,c]) vs ("R", [a,bc]) vs
	// ("Ra", [b,c]) all spell "Rabc" when naively joined.
	r := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindString},
		{Name: "b", Type: value.KindString},
		{Name: "c", Type: value.KindString},
		{Name: "ab", Type: value.KindString},
		{Name: "bc", Type: value.KindString},
	})
	ra := relation.MustSchema("Ra", []relation.Attribute{
		{Name: "b", Type: value.KindString},
		{Name: "c", Type: value.KindString},
	})
	cat, err := relation.NewCatalog(r, ra)
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDatabase(cat)
	rt := db.MustTable("R")
	for i := 0; i < 4; i++ {
		// a,bc repeat pairwise (2 distinct pairs); ab,c are all distinct.
		rt.MustInsert(table.Row{
			value.NewString("a" + string(rune('0'+i%2))),
			value.NewString("b"),
			value.NewString("c" + string(rune('0'+i))),
			value.NewString("ab" + string(rune('0'+i))),
			value.NewString("bc" + string(rune('0'+i%2))),
		})
	}
	rat := db.MustTable("Ra")
	rat.MustInsert(table.Row{value.NewString("u"), value.NewString("v")})

	c := stats.NewCache(db)
	nAB, err := c.DistinctCount("R", []string{"ab", "c"})
	if err != nil {
		t.Fatal(err)
	}
	nA, err := c.DistinctCount("R", []string{"a", "bc"})
	if err != nil {
		t.Fatal(err)
	}
	if nAB != 4 || nA != 2 {
		t.Errorf("DistinctCount(R,[ab c]) = %d, (R,[a bc]) = %d; want 4 and 2", nAB, nA)
	}
	nRa, err := c.DistinctCount("Ra", []string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if nRa != 1 {
		t.Errorf("DistinctCount(Ra,[b c]) = %d, want 1", nRa)
	}
	// Invalidating R must not evict Ra's entry: "Ra" is not a segment-wise
	// prefix of itself under R's length-prefixed key.
	before := c.Metrics()
	c.Invalidate("R")
	if _, err := c.DistinctCount("Ra", []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	after := c.Metrics()
	if after.Hits != before.Hits+1 {
		t.Errorf("Invalidate(R) evicted Ra's entry: hits %d -> %d", before.Hits, after.Hits)
	}
}

func TestEvictionBound(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	c.SetMaxEntries(2)
	projections := [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}, {"a", "c"}}
	for _, p := range projections {
		want, _ := db.MustTable("R").DistinctCount(p)
		got, err := c.DistinctCount("R", p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("DistinctCount(R, %v) = %d, want %d", p, got, want)
		}
	}
	m := c.Metrics()
	if m.Entries > 2 {
		t.Errorf("Entries = %d, bound is 2", m.Entries)
	}
	if m.Evictions < 3 {
		t.Errorf("Evictions = %d, want ≥ 3", m.Evictions)
	}
}

func TestConcurrentLookups(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	projections := [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}, {"a", "b", "c"}}
	want := make([]int, len(projections))
	for i, p := range projections {
		want[i], _ = db.MustTable("R").DistinctCount(p)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, p := range projections {
					got, err := c.DistinctCount("R", p)
					if err != nil {
						errc <- err
						return
					}
					if got != want[i] {
						t.Errorf("concurrent DistinctCount(R, %v) = %d, want %d", p, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// 16 goroutines × 20 rounds × 6 projections, only 6 builds.
	if m := c.Metrics(); m.Misses != uint64(len(projections)) {
		t.Errorf("Misses = %d, want %d (duplicate builds must coalesce)", m.Misses, len(projections))
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			visited := make([]int32, n)
			var mu sync.Mutex
			stats.ForEach(n, workers, func(i int) {
				mu.Lock()
				visited[i]++
				mu.Unlock()
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestForEachSerialWorkers pins the documented worker semantics: 0 and
// 1 are serial (fn never runs concurrently), and only a negative count
// fans out over GOMAXPROCS. A served job's explicit "parallelism": 0
// must not escape the server's parallelism cap.
func TestForEachSerialWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	peak := func(workers int) int64 {
		var cur, max atomic.Int64
		stats.ForEach(8, workers, func(int) {
			c := cur.Add(1)
			for m := max.Load(); c > m && !max.CompareAndSwap(m, c); m = max.Load() {
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
		})
		return max.Load()
	}
	for _, workers := range []int{0, 1} {
		if p := peak(workers); p != 1 {
			t.Errorf("workers=%d: peak concurrency %d, want 1 (serial)", workers, p)
		}
	}
	if p := peak(-1); p < 2 {
		t.Errorf("workers=-1: peak concurrency %d, want GOMAXPROCS fan-out", p)
	}
}
