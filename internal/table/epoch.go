// Epoch-versioned reads: MVCC-lite snapshots of a table.
//
// An epoch is a frozen, immutable view of one table at a batch commit
// point: a lightweight Table clone whose code vectors and dictionaries
// are capped sub-slices of the live column storage. Sharing is sound
// because both stores are append-only past every commit point — appends
// only write indexes beyond the published caps, and the strict-mode
// batch rollback truncates to keep ≥ base, where base is itself ≥ every
// previously committed row count (and keepDict ≥ baseDict ≥ every
// previously committed dictionary length), so re-grown storage never
// overwrites bytes inside a published cap.
//
// The live table republishes its epoch at the end of every AppendBatch
// (commit and rollback alike land on a consistent post-batch state);
// the per-row insert paths just clear the pointer, so a later pin
// rebuilds from a quiescent table. Pinning is a single atomic load —
// discovery can run over a pinned epoch while ingest keeps appending to
// the live table, with results consistent with the pinned commit point.
package table

// publishEpoch installs a fresh frozen snapshot of the current commit
// point. Called by the mutation paths only (never concurrently with
// itself); readers race only against the atomic store.
func (t *Table) publishEpoch() {
	if t.frozen {
		return
	}
	t.ensureAll()
	t.epoch.Store(t.freeze())
}

// freeze builds the frozen clone: capped views of codes and dict, copied
// counters, no interning maps, no constraint indexes, no lazy state. The
// clone costs O(columns) slice headers — no row or dictionary data is
// copied.
func (t *Table) freeze() *Table {
	n := t.nrows
	f := &Table{
		schema:      t.schema,
		cols:        t.cols,
		columns:     make([]column, len(t.columns)),
		nrows:       n,
		version:     t.version,
		frozen:      true,
		origin:      t,
		abytes:      t.abytes,
		abytesValid: t.abytesValid,
	}
	for ci := range t.columns {
		c := &t.columns[ci]
		dl := len(c.dict)
		f.columns[ci] = column{
			codes:   c.codes[:n:n],
			dict:    c.dict[:dl:dl],
			nonNull: c.nonNull,
			nonInt:  c.nonInt,
		}
	}
	return f
}

// PinEpoch returns the table's current epoch: an immutable snapshot of
// the last batch commit point, safe to read while AppendBatch keeps
// mutating the live table. When no epoch is published yet (a freshly
// built table, or one mutated through the per-row insert paths since),
// the first pin builds one — that first pin requires the caller to be
// quiescent with respect to writers, exactly like any other read today.
// On an already-frozen table it returns the table itself.
func (t *Table) PinEpoch() *Table {
	if t.frozen {
		return t
	}
	if e := t.epoch.Load(); e != nil {
		return e
	}
	t.publishEpoch()
	return t.epoch.Load()
}

// Frozen reports whether the table is an immutable epoch snapshot.
func (t *Table) Frozen() bool { return t.frozen }

// EpochOrigin identifies the append-only history a table belongs to: the
// live table a frozen clone was cut from, or the table itself when live.
// Two tables with the same origin are commit points of one history, so a
// version delta that equals the row delta certifies that the newer view
// is the older view plus appended rows — the certificate the stats cache
// uses to extend projections across epoch republications.
func (t *Table) EpochOrigin() *Table {
	if t.origin != nil {
		return t.origin
	}
	return t
}

// invalidateEpoch drops the published snapshot; the per-row mutation
// paths call it because they commit after every single row, which is
// far too fine-grained to republish.
func (t *Table) invalidateEpoch() { t.epoch.Store(nil) }

// PinEpoch snapshots the whole database: a cloned catalog (so schema
// additions and replacements against the pinned view — NEI
// conceptualization, restructuring, key inference — never touch the
// live catalog) over one pinned epoch per table. The snapshot is
// consistent per table at that table's last commit point; it is safe
// concurrently with AppendBatch on existing relations, but not with
// catalog mutation or per-row inserts on the live database, which keep
// their quiescent-only contract.
func (db *Database) PinEpoch() *Database {
	cat := db.catalog.Clone()
	out := &Database{
		catalog: cat,
		tables:  make(map[string]*Table, len(db.tables)),
	}
	for name, t := range db.tables {
		out.tables[name] = t.PinEpoch()
	}
	return out
}

// Epoch sums the version counters of every relation: a single number
// that changes whenever any extension changes, cheap enough to expose
// per status poll. Meaningful when computed at a commit point (the job
// server computes it under its own mutation lock).
func (db *Database) Epoch() uint64 {
	var e uint64
	for _, t := range db.tables {
		e += t.version
	}
	return e
}
