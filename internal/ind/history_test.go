package ind

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dbre/internal/expert"
	"dbre/internal/paperex"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// rowCounts snapshots every relation's row count: the watermarks a pass
// with history compares the database against.
func rowCounts(db *table.Database) map[string]int {
	out := make(map[string]int)
	for _, name := range db.Catalog().Names() {
		out[name] = db.MustTable(name).Len()
	}
	return out
}

// resultSignature flattens the outcomes, INDs and new relations of a
// result into one comparable string.
func resultSignature(r *Result) string {
	var b strings.Builder
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "%s\n", o)
	}
	fmt.Fprintf(&b, "IND=%s\nS=%v\n", r.INDs, r.NewRelations)
	return b.String()
}

// TestHistoryUnchangedDatabaseReplays: over an unchanged database, a
// pass given the previous result as history replays every join, issues
// no extension query, never consults the expert, keeps the NEI relation
// it conceptualized, and equals the cold result.
func TestHistoryUnchangedDatabaseReplays(t *testing.T) {
	ctx := context.Background()
	db := paperex.Database()
	o := Opts{Stats: stats.NewCache(db)}
	cold, _, err := DiscoverCtx(ctx, db, paperex.Q(), paperex.Oracle(), o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := expert.NewRecording(paperex.Oracle())
	warm, ds, err := DiscoverCtx(ctx, db, paperex.Q(), rec, o, cold, rowCounts(db))
	if err != nil {
		t.Fatal(err)
	}
	if ds != (DeltaStats{Reused: len(cold.Outcomes)}) {
		t.Errorf("delta stats = %+v, want every one of %d joins reused", ds, len(cold.Outcomes))
	}
	if warm.ExtensionQueries != 0 {
		t.Errorf("extension queries = %d, want 0", warm.ExtensionQueries)
	}
	if len(rec.Log) != 0 {
		t.Errorf("expert consulted: %v", rec.Log)
	}
	if got, want := resultSignature(warm), resultSignature(cold); got != want {
		t.Errorf("replay diverges from the cold result:\n--- replay\n%s--- cold\n%s", got, want)
	}
	if !db.Catalog().Has("Ass-Dept") {
		t.Error("replay retracted the Ass-Dept concept relation")
	}
}

// TestHistoryWithoutJoinDecidesInFull: a join the history does not know
// is counted and decided as in a cold run, while the known joins are
// replayed.
func TestHistoryWithoutJoinDecidesInFull(t *testing.T) {
	ctx := context.Background()
	db := paperex.Database()
	cold, _, err := DiscoverCtx(ctx, db, paperex.Q(), paperex.Oracle(), Opts{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Forget the first inclusion: deciding it again needs no expert.
	prev := *cold
	prev.Outcomes = nil
	forgotten := -1
	for i, out := range cold.Outcomes {
		if forgotten < 0 && out.Case == CaseInclusion {
			forgotten = i
			continue
		}
		prev.Outcomes = append(prev.Outcomes, out)
	}
	if forgotten < 0 {
		t.Fatal("precondition: the paper example has no inclusion join")
	}
	rec := expert.NewRecording(paperex.Oracle())
	warm, ds, err := DiscoverCtx(ctx, db, paperex.Q(), rec, Opts{}, &prev, rowCounts(db))
	if err != nil {
		t.Fatal(err)
	}
	if want := (DeltaStats{Reused: len(cold.Outcomes) - 1, Redecided: 1}); ds != want {
		t.Errorf("delta stats = %+v, want %+v", ds, want)
	}
	if warm.ExtensionQueries != 3 {
		t.Errorf("extension queries = %d, want the forgotten join's 3", warm.ExtensionQueries)
	}
	if len(rec.Log) != 0 {
		t.Errorf("expert consulted: %v", rec.Log)
	}
	if got, want := resultSignature(warm), resultSignature(cold); got != want {
		t.Errorf("pass diverges from the cold result:\n--- pass\n%s--- cold\n%s", got, want)
	}
}
