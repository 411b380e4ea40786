package fd

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// paperCandidates returns the Section 6.2.1 LHS and hidden-object seeds.
func paperCandidates() (lhs, hidden []relation.Ref) {
	lhs = []relation.Ref{
		relation.NewRef("HEmployee", "no"),
		relation.NewRef("Department", "emp"),
		relation.NewRef("Assignment", "emp"),
		relation.NewRef("Assignment", "proj"),
		relation.NewRef("Department", "proj"),
	}
	return lhs, []relation.Ref{relation.NewRef("Assignment", "dep")}
}

// rowCounts snapshots every relation's row count: the watermarks a pass
// with history compares the database against.
func rowCounts(db *table.Database) map[string]int {
	out := make(map[string]int)
	for _, name := range db.Catalog().Names() {
		out[name] = db.MustTable(name).Len()
	}
	return out
}

// rhsSignature flattens the traces, FDs, hidden set and check count of a
// result into one comparable string.
func rhsSignature(r *Result) string {
	var b strings.Builder
	for _, tr := range r.Traces {
		fmt.Fprintf(&b, "%s enforced=%s\n", tr, tr.Enforced)
	}
	fmt.Fprintf(&b, "F=%v\nH=%v\nchecks=%d\n", r.FDs, r.Hidden, r.ExtensionChecks)
	return b.String()
}

// coldPaperRun runs RHS-Discovery on a fresh paper database through a
// recording oracle and returns everything a pass with history needs.
func coldPaperRun(t *testing.T) (*table.Database, Opts, *Result, SupportMap, *expert.Recording) {
	t.Helper()
	db := paperex.Database()
	o := Opts{Stats: stats.NewCache(db)}
	lhs, hidden := paperCandidates()
	rec := expert.NewRecording(paperex.Oracle())
	res, sup, _, err := DiscoverRHSCtx(context.Background(), db, lhs, hidden, rec, o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db, o, res, sup, rec
}

// TestHistoryUnchangedDatabaseReplays: over an unchanged database, a
// pass given the previous support table as history runs no check
// kernel, puts the same questions to the expert in the same order (the
// decision loop replays over the reused supports), and equals the cold
// result.
func TestHistoryUnchangedDatabaseReplays(t *testing.T) {
	db, o, cold, sup, coldRec := coldPaperRun(t)
	lhs, hidden := paperCandidates()
	tr := obs.NewTracer("test")
	ctx := obs.NewContext(context.Background(), tr)
	rec := expert.NewRecording(paperex.Oracle())
	warm, warmSup, ds, err := DiscoverRHSCtx(ctx, db, lhs, hidden, rec, o, sup, rowCounts(db))
	if err != nil {
		t.Fatal(err)
	}
	if ds != (DeltaStats{Reused: len(sup)}) {
		t.Errorf("delta stats = %+v, want every one of %d checks reused", ds, len(sup))
	}
	if n := tr.Count(obs.CtrFDChecks); n != 0 {
		t.Errorf("fd-checks = %d, want 0", n)
	}
	if !reflect.DeepEqual(rec.Log, coldRec.Log) {
		t.Errorf("expert dialogue differs:\n replay %v\n cold   %v", rec.Log, coldRec.Log)
	}
	if got, want := rhsSignature(warm), rhsSignature(cold); got != want {
		t.Errorf("replay diverges from the cold result:\n--- replay\n%s--- cold\n%s", got, want)
	}
	if !reflect.DeepEqual(warmSup, sup) {
		t.Error("replayed support table differs from the cold one")
	}
}

// TestHistoryWithoutCheckDecidesInFull: a check the history does not
// know — its support is missing, or its relation has no watermark — runs
// the full kernel, the rest are reused, and the result equals the cold
// one. Without a cache the history is not read at all.
func TestHistoryWithoutCheckDecidesInFull(t *testing.T) {
	db, o, cold, sup, _ := coldPaperRun(t)
	lhs, hidden := paperCandidates()
	ctx := context.Background()

	forgotten := maps.Clone(sup)
	key := [2]string{relation.NewRef("Department", "emp").Key(), "skill"}
	if _, ok := forgotten[key]; !ok {
		t.Fatalf("precondition: no support for %v", key)
	}
	delete(forgotten, key)
	newRel := rowCounts(db)
	delete(newRel, "HEmployee")
	hemployee := 0
	for k := range sup {
		if strings.HasPrefix(k[0], "HEmployee") {
			hemployee++
		}
	}
	if hemployee == 0 {
		t.Fatal("precondition: no HEmployee checks")
	}
	for _, tc := range []struct {
		name string
		o    Opts
		prev SupportMap
		base map[string]int
		full int
	}{
		{"missing support", o, forgotten, rowCounts(db), 1},
		{"missing watermark", o, sup, newRel, hemployee},
		{"no cache", Opts{}, sup, rowCounts(db), len(sup)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, got, ds, err := DiscoverRHSCtx(ctx, db, lhs, hidden, paperex.Oracle(), tc.o, tc.prev, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			if want := (DeltaStats{Reused: len(sup) - tc.full, Escalated: tc.full}); ds != want {
				t.Errorf("delta stats = %+v, want %+v", ds, want)
			}
			if !reflect.DeepEqual(got, sup) {
				t.Error("support table differs from the cold one")
			}
			if g, w := rhsSignature(res), rhsSignature(cold); g != w {
				t.Errorf("pass diverges from the cold result:\n--- pass\n%s--- cold\n%s", g, w)
			}
		})
	}
}
