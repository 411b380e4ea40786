package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/paperex"
	"dbre/internal/table"
	"dbre/internal/value"
)

// discoverySignature flattens every discovery artifact of a report into
// one comparable string: constraints, INDs, LHS candidates, hidden
// objects, FDs. Timings and traces are deliberately excluded.
func discoverySignature(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "K=%d N=%d inferred=%d\n", len(rep.K), len(rep.N), len(rep.InferredKeys))
	fmt.Fprintf(&b, "IND=%s\n", rep.IND.INDs)
	fmt.Fprintf(&b, "S=%v\n", rep.IND.NewRelations)
	for _, l := range rep.LHS.LHS {
		fmt.Fprintf(&b, "LHS %s\n", l)
	}
	for _, h := range rep.LHS.Hidden {
		fmt.Fprintf(&b, "Hseed %s\n", h)
	}
	for _, f := range rep.RHS.FDs {
		fmt.Fprintf(&b, "FD %s\n", f)
	}
	for _, h := range rep.RHS.Hidden {
		fmt.Fprintf(&b, "H %s\n", h)
	}
	return b.String()
}

// tableSignature renders a relation's extension as sorted row strings,
// for comparing NEI concept relations across databases.
func tableSignature(t *testing.T, db *table.Database, rel string) string {
	t.Helper()
	tab, ok := db.Table(rel)
	if !ok {
		return "<missing " + rel + ">"
	}
	rows := make([]string, tab.Len())
	for i := range rows {
		rows[i] = fmt.Sprint(tab.Row(i))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// appendRows batch-appends rows to one relation, failing the test on any
// error or uniqueness violation.
func appendRows(t *testing.T, db *table.Database, rel string, rows []table.Row) {
	t.Helper()
	tab := db.MustTable(rel)
	enc := table.NewChunkEncoder(tab)
	for _, r := range rows {
		if err := enc.AppendRow(r); err != nil {
			t.Fatalf("encode %s row: %v", rel, err)
		}
	}
	viol, err := tab.NewAppender().AppendBatch(enc, true)
	if err != nil || viol != 0 {
		t.Fatalf("append %s: violations=%d err=%v", rel, viol, err)
	}
}

// cleanAssignmentRows builds Assignment rows over already-seen value
// domains: every planted dependency keeps holding, every planted
// violation stays violated, and no projection gains a distinct value.
// salt shifts the (emp, dep, proj) combinations so consecutive batches
// never collide on the key.
func cleanAssignmentRows(n, salt int) []table.Row {
	iv, sv := value.NewInt, value.NewString
	d0 := value.NewDate(1996, time.January, 1)
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		emp := 1 + i                                         // existing employee
		dep := 26 + (emp+50+7*salt)%paperex.NumAssignDeps    // existing department code
		proj := 1 + (emp+100+11*salt)%paperex.NumAssignProjs // existing project
		rows = append(rows, table.Row{
			iv(int64(emp)), iv(int64(dep)), iv(int64(proj)),
			d0, sv(fmt.Sprintf("project-%d", proj)), // keeps proj → project-name
		})
	}
	return rows
}

// breakingDepartmentRows is one new department managed by employee 1
// with the wrong skill: it breaks emp → skill, keeps emp → proj, and
// grows Department[dep] so the Assignment–Department join's evidence
// moves.
func breakingDepartmentRows() []table.Row {
	iv, sv := value.NewInt, value.NewString
	return []table.Row{{iv(9999), iv(1), sv("skill-off"), sv("location-off"), iv(1)}}
}

// TestIncrementalCleanAppend: a delta that disturbs nothing. Unchanged
// relations are reused, the grown relation's clean FDs are delta-checked,
// and the refreshed report is bit-identical to a cold discovery run over
// an identically grown database.
func TestIncrementalCleanAppend(t *testing.T) {
	ctx := context.Background()
	db := paperex.Database()
	opts := Options{Oracle: paperex.Oracle()}
	inc, err := DiscoverIncremental(ctx, db, paperex.Q(), opts)
	if err != nil {
		t.Fatal(err)
	}
	initial := discoverySignature(inc.Report())

	rows := cleanAssignmentRows(40, 0)
	appendRows(t, db, "Assignment", rows)
	dr, err := inc.Revalidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dr.AppendedRows != len(rows) || len(dr.ChangedRelations) != 1 || dr.ChangedRelations[0] != "Assignment" {
		t.Errorf("delta detection: %+v", dr)
	}
	if len(dr.BrokenFDs) != 0 || len(dr.BrokenINDs) != 0 || len(dr.NewFDs) != 0 || len(dr.NewINDs) != 0 {
		t.Errorf("clean append changed dependencies: %s", dr.Text())
	}
	if dr.FD.Reused == 0 || dr.FD.DeltaChecked == 0 {
		t.Errorf("no delta reuse in FD phase: %+v", dr.FD)
	}
	if dr.FD.Broken != 0 {
		t.Errorf("clean append broke FDs: %+v", dr.FD)
	}
	if dr.IND.Reused == 0 || dr.IND.Redecided != 0 {
		t.Errorf("IND phase: %+v", dr.IND)
	}
	// No projection gained a value, so every IND recount comes back
	// unchanged and the expert is never consulted.
	if dr.IND.Recounted == 0 {
		t.Errorf("joins touching Assignment should recount: %+v", dr.IND)
	}
	if got := discoverySignature(inc.Report()); got != initial {
		t.Errorf("clean append changed the report:\n--- initial\n%s\n--- now\n%s", initial, got)
	}

	// Cold run over an identically grown database.
	cold := paperex.Database()
	appendRows(t, cold, "Assignment", rows)
	cinc, err := DiscoverIncremental(ctx, cold, paperex.Q(), Options{Oracle: paperex.Oracle()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := discoverySignature(inc.Report()), discoverySignature(cinc.Report()); got != want {
		t.Errorf("incremental diverges from cold run:\n--- incremental\n%s\n--- cold\n%s", got, want)
	}
	if got, want := tableSignature(t, db, "Ass-Dept"), tableSignature(t, cold, "Ass-Dept"); got != want {
		t.Errorf("Ass-Dept extensions diverge")
	}
}

// TestIncrementalBreakingAppend: the delta violates a previously-accepted
// FD (Department: emp → skill) and grows Department[dep], forcing the
// Ass-Dept NEI join through a full re-decision. The broken FD surfaces as
// a targeted re-escalation, the retracted concept relation is rebuilt,
// and the result is still bit-identical to a cold run.
func TestIncrementalBreakingAppend(t *testing.T) {
	ctx := context.Background()
	db := paperex.Database()
	inc, err := DiscoverIncremental(ctx, db, paperex.Q(), Options{Oracle: paperex.Oracle()})
	if err != nil {
		t.Fatal(err)
	}
	hadSkill := false
	for _, f := range inc.Report().RHS.FDs {
		if strings.Contains(f.String(), "skill") {
			hadSkill = true
		}
	}
	if !hadSkill {
		t.Fatalf("precondition: emp → skill not accepted initially: %v", inc.Report().RHS.FDs)
	}

	breaking := breakingDepartmentRows()
	appendRows(t, db, "Department", breaking)

	dr, err := inc.Revalidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.BrokenFDs) == 0 {
		t.Errorf("broken FD not reported: %s", dr.Text())
	}
	if dr.FD.Broken == 0 {
		t.Errorf("no FD re-escalation recorded: %+v", dr.FD)
	}
	if dr.IND.Redecided == 0 {
		t.Errorf("moved join evidence not re-decided: %+v", dr.IND)
	}
	for _, f := range inc.Report().RHS.FDs {
		if strings.Contains(f.String(), "skill") {
			t.Errorf("emp → skill survived its violation: %v", inc.Report().RHS.FDs)
		}
	}

	cold := paperex.Database()
	appendRows(t, cold, "Department", breaking)
	cinc, err := DiscoverIncremental(ctx, cold, paperex.Q(), Options{Oracle: paperex.Oracle()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := discoverySignature(inc.Report()), discoverySignature(cinc.Report()); got != want {
		t.Errorf("incremental diverges from cold run after break:\n--- incremental\n%s\n--- cold\n%s", got, want)
	}
	if got, want := tableSignature(t, db, "Ass-Dept"), tableSignature(t, cold, "Ass-Dept"); got != want {
		t.Errorf("re-conceptualized Ass-Dept diverges from cold run:\n--- incremental\n%s\n--- cold\n%s", got, want)
	}
}

// TestIncrementalRepeatedDeltas: several consecutive delta rounds stay
// cold-identical (watermarks advance correctly between rounds).
func TestIncrementalRepeatedDeltas(t *testing.T) {
	ctx := context.Background()
	db := paperex.Database()
	inc, err := DiscoverIncremental(ctx, db, paperex.Q(), Options{Oracle: paperex.Oracle()})
	if err != nil {
		t.Fatal(err)
	}
	cold := paperex.Database()
	for round := 0; round < 3; round++ {
		rows := cleanAssignmentRows(10*(round+1), round+1)
		appendRows(t, db, "Assignment", rows)
		appendRows(t, cold, "Assignment", rows)
		if _, err := inc.Revalidate(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	cinc, err := DiscoverIncremental(ctx, cold, paperex.Q(), Options{Oracle: paperex.Oracle()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := discoverySignature(inc.Report()), discoverySignature(cinc.Report()); got != want {
		t.Errorf("divergence after repeated deltas:\n--- incremental\n%s\n--- cold\n%s", got, want)
	}
}

// cancelOn wraps an oracle and, once armed with a cancel function, calls
// it from inside the next NEI consultation (onFD false) or FD validation
// (onFD true).
type cancelOn struct {
	expert.Oracle
	onFD   bool
	cancel context.CancelFunc
}

func (c *cancelOn) fire(fd bool) {
	if c.cancel != nil && c.onFD == fd {
		c.cancel()
		c.cancel = nil
	}
}

func (c *cancelOn) DecideNEI(n expert.NEIContext) expert.NEIDecision {
	c.fire(false)
	return c.Oracle.DecideNEI(n)
}

func (c *cancelOn) ValidateFD(f deps.FD, s expert.FDSupport) bool {
	c.fire(true)
	return c.Oracle.ValidateFD(f, s)
}

// TestIncrementalFailedPassKeepsState: a cancelled re-validation leaves
// the retained state as it was, whatever the pass had already done to the
// database. The retry then reports only the appended relation and is
// identical to a cold run. The cases cancel inside IND-Discovery after it
// retracted the Ass-Dept NEI relation; inside RHS-Discovery after it
// rebuilt Ass-Dept with a grown intersection; and inside RHS-Discovery
// after it conceptualized a new NEI relation.
func TestIncrementalFailedPassKeepsState(t *testing.T) {
	iv, sv := value.NewInt, value.NewString
	mgrJoin := deps.NewEquiJoin(deps.NewSide("Department", "emp"), deps.NewSide("HEmployee", "no"))
	for _, tc := range []struct {
		name string
		rows []table.Row
		onFD bool
		// newNEI scripts the Department–HEmployee join, an IND until the
		// append, to be conceptualized as a relation of its own.
		newNEI bool
		rels   []string
	}{
		{"nei", breakingDepartmentRows(), false, false, []string{"Ass-Dept"}},
		// Department 126 is an Assignment department: Ass-Dept grows.
		{"fd-rebuilt", []table.Row{{iv(126), value.Null, value.Null, sv("location-6"), value.Null}}, true, false, []string{"Ass-Dept"}},
		// Manager 5000 is no employee: Department[emp] ⊄ HEmployee[no].
		{"fd-created", []table.Row{{iv(9998), iv(5000), sv("skill-2"), sv("location-8"), iv(40)}}, true, true, []string{"Ass-Dept", "Dept-Mgr"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracleFor := func() *expert.Scripted {
				o := paperex.Oracle()
				if tc.newNEI {
					o.NEI[mgrJoin.Key()] = expert.NEIDecision{Action: expert.NEINewRelation, Name: "Dept-Mgr"}
				}
				return o
			}
			ctx := context.Background()
			db := paperex.Database()
			oracle := &cancelOn{Oracle: oracleFor(), onFD: tc.onFD}
			inc, err := DiscoverIncremental(ctx, db, paperex.Q(), Options{Oracle: oracle})
			if err != nil {
				t.Fatal(err)
			}
			before := inc.BaseRows()
			appendRows(t, db, "Department", tc.rows)

			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			oracle.cancel = cancel
			if _, err := inc.Revalidate(cctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled pass: err = %v, want context.Canceled", err)
			}
			if oracle.cancel != nil {
				t.Fatal("precondition: the pass never reached the cancelling consultation")
			}
			if got := inc.BaseRows(); !reflect.DeepEqual(got, before) {
				t.Errorf("failed pass moved the watermarks:\n got %v\nwant %v", got, before)
			}

			dr, err := inc.Revalidate(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if dr.AppendedRows != 1 || fmt.Sprint(dr.ChangedRelations) != "[Department]" {
				t.Errorf("retry: +%d rows across %v, want +1 across [Department]", dr.AppendedRows, dr.ChangedRelations)
			}
			cold := paperex.Database()
			appendRows(t, cold, "Department", tc.rows)
			cinc, err := DiscoverIncremental(ctx, cold, paperex.Q(), Options{Oracle: oracleFor()})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := discoverySignature(inc.Report()), discoverySignature(cinc.Report()); got != want {
				t.Errorf("retry diverges from cold run:\n--- incremental\n%s\n--- cold\n%s", got, want)
			}
			if got, want := fmt.Sprint(db.Catalog().Names()), fmt.Sprint(cold.Catalog().Names()); got != want {
				t.Errorf("relations diverge from cold run:\n got %s\nwant %s", got, want)
			}
			for _, rel := range tc.rels {
				if got, want := tableSignature(t, db, rel), tableSignature(t, cold, rel); got != want {
					t.Errorf("%s diverges from cold run:\n--- incremental\n%s\n--- cold\n%s", rel, got, want)
				}
			}
		})
	}
}

// TestIncrementalPassCounters: a re-validation pass publishes
// fd-rhs-pruned like the cold pass (it plans the same candidates), and
// nei-escalated counts the NEIs the pass decided itself. The breaking
// append re-asks the expert about Ass-Dept; the clean one asks nothing.
func TestIncrementalPassCounters(t *testing.T) {
	for _, tc := range []struct {
		name string
		rel  string
		rows []table.Row
		nei  int64
	}{
		{"breaking", "Department", breakingDepartmentRows(), 1},
		{"clean", "Assignment", cleanAssignmentRows(40, 0), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			db := paperex.Database()
			coldTr := obs.NewTracer("cold")
			inc, err := DiscoverIncremental(obs.NewContext(ctx, coldTr), db, paperex.Q(), Options{Oracle: paperex.Oracle()})
			if err != nil {
				t.Fatal(err)
			}
			appendRows(t, db, tc.rel, tc.rows)
			tr := obs.NewTracer("revalidate")
			if _, err := inc.Revalidate(obs.NewContext(ctx, tr)); err != nil {
				t.Fatal(err)
			}
			if got, want := tr.Count(obs.CtrRHSPruned), coldTr.Count(obs.CtrRHSPruned); got != want || got == 0 {
				t.Errorf("fd-rhs-pruned = %d, want the cold pass's %d", got, want)
			}
			if got := tr.Count(obs.CtrNEIEscalated); got != tc.nei {
				t.Errorf("nei-escalated = %d, want %d", got, tc.nei)
			}
		})
	}
}

// TestPinEpochRun: the full pipeline over a pinned epoch sees only the
// rows present at the pin, even as the live database grows — and the
// live database is never touched by the pinned run's restructuring.
func TestPinEpochRun(t *testing.T) {
	db := paperex.Database()
	before := db.MustTable("Assignment").Len()
	pinned := db.PinEpoch()
	// Grow the live Assignment after the pin; the pinned view must not
	// move.
	appendRows(t, db, "Assignment", cleanAssignmentRows(25, 0))
	if n := pinned.MustTable("Assignment").Len(); n != before {
		t.Fatalf("pinned Assignment grew: %d != %d", n, before)
	}

	opts := Options{Oracle: paperex.Oracle(), TransitiveClosure: true}
	rep, err := RunWithQ(pinned, paperex.Q(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EER == nil {
		t.Fatal("pinned pipeline skipped translation")
	}
	// The pinned run's artifacts match a run over the pre-append state.
	ref, err := RunWithQ(paperex.Database(), paperex.Q(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IND.INDs.String() != ref.IND.INDs.String() {
		t.Errorf("pinned INDs diverge: %s vs %s", rep.IND.INDs, ref.IND.INDs)
	}
	if rep.EER.Text() != ref.EER.Text() {
		t.Error("pinned EER diverges from pre-append reference")
	}
	// The live database kept its growth and never saw the restructuring.
	if n := db.MustTable("Assignment").Len(); n != before+25 {
		t.Errorf("live Assignment = %d", n)
	}
	if !db.Catalog().Has("Assignment") || db.Catalog().Has("Ass-Dept") {
		t.Error("pinned run leaked schema changes into the live database")
	}

	// PinEpochRun itself pins at call time: it must now see the grown
	// state and match a cold run over it.
	rep2, err := PinEpochRun(context.Background(), db, paperex.Q(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := paperex.Database()
	appendRows(t, cold, "Assignment", cleanAssignmentRows(25, 0))
	ref2, err := RunWithQ(cold, paperex.Q(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.EER.Text() != ref2.EER.Text() {
		t.Error("PinEpochRun diverges from cold run over the grown state")
	}
}

// TestDiscoveryConcurrentWithIngest is the -race gate for the MVCC-lite
// contract at pipeline level: full discovery runs repeatedly over pinned
// epochs while a writer streams clean Assignment batches into the live
// database. Every run must observe a commit point (never a torn batch)
// and produce exactly the artifacts of a cold run over a database
// rebuilt from the pinned rows.
func TestDiscoveryConcurrentWithIngest(t *testing.T) {
	db := paperex.Database()
	base := db.MustTable("Assignment").Len()
	const batch = 20
	// A table's first pin builds its epoch and must not race a writer
	// (see Table.PinEpoch); publish every epoch before the writer starts,
	// as the job server's pool does on install.
	db.PinEpoch()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // writer: one clean strict batch per salt
		defer close(done)
		for salt := 10; salt < 100; salt++ {
			select {
			case <-stop:
				return
			default:
			}
			tab := db.MustTable("Assignment")
			enc := table.NewChunkEncoder(tab)
			for _, r := range cleanAssignmentRows(batch, salt) {
				if err := enc.AppendRow(r); err != nil {
					t.Errorf("encode: %v", err)
					return
				}
			}
			if v, err := tab.NewAppender().AppendBatch(enc, true); err != nil || v != 0 {
				t.Errorf("append: violations=%d err=%v", v, err)
				return
			}
		}
	}()

	opts := Options{Oracle: paperex.Oracle(), TransitiveClosure: true}
	for i := 0; i < 3; i++ {
		pinned := db.PinEpoch()
		pinnedAss := pinned.MustTable("Assignment")
		if (pinnedAss.Len()-base)%batch != 0 {
			t.Fatalf("pinned Assignment has %d rows: not a commit point (base %d, batch %d)",
				pinnedAss.Len(), base, batch)
		}
		rep, err := RunWithQ(pinned, paperex.Q(), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild a quiescent database holding exactly the pinned rows
		// and require identical artifacts.
		rebuilt := paperex.Database()
		extra := make([]table.Row, 0, pinnedAss.Len()-base)
		for r := base; r < pinnedAss.Len(); r++ {
			extra = append(extra, pinnedAss.Row(r))
		}
		if len(extra) > 0 {
			appendRows(t, rebuilt, "Assignment", extra)
		}
		ref, err := RunWithQ(rebuilt, paperex.Q(), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.IND.INDs.String() != ref.IND.INDs.String() {
			t.Fatalf("run %d: pinned INDs diverge: %s vs %s", i, rep.IND.INDs, ref.IND.INDs)
		}
		if rep.EER.Text() != ref.EER.Text() {
			t.Fatalf("run %d: pinned EER diverges from rebuilt reference", i)
		}
	}
	close(stop)
	<-done
}
