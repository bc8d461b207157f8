package swole

import (
	"fmt"

	"github.com/reprolab/swole/internal/ingest"
	"github.com/reprolab/swole/internal/storage"
)

// Streaming append path (DESIGN.md §14). Appends keep the store's
// append-only-at-table-granularity discipline: a batch builds replacement
// columns with storage.Column.Append (sharing backing arrays whenever the
// physical width holds), registers the replacement table, and lets the
// existing invalidation machinery do exactly — and only — the work the
// change requires: the catalog holds a new table object, so the cached plans
// that bound the old one are stale — each re-prepares itself on its next run,
// keeping its buffers (querycache.go) — and the table's cached statistics move
// to the new object, merged incrementally with the delta instead of being
// dropped. Other tables' plans and statistics are untouched, and no reader
// waits: a query in flight finishes on the arrays it compiled against.
//
// A batch holds the DB's writeMu from the catalog read its rows decode
// against to its registration, so it appends to the registration it
// decoded for: a CreateTable of the same name waits, and the kernel's
// dictionary codes always belong to the column they land in.

// IngestPolicy controls what a malformed CSV row does to a batch.
type IngestPolicy = ingest.Policy

// Ingest error policies.
const (
	// IngestStrict aborts the whole batch on the first malformed row;
	// nothing is appended.
	IngestStrict = ingest.Strict
	// IngestSkip drops malformed rows, counting and attributing each,
	// and appends the rest.
	IngestSkip = ingest.Skip
)

// IngestReport summarizes one CSV batch: rows appended, rows rejected,
// and up to ingest.MaxRowErrors line-attributed error messages.
type IngestReport struct {
	Accepted int      `json:"accepted"`
	Rejected int      `json:"rejected"`
	Errors   []string `json:"errors,omitempty"`
}

// AppendCSV parses data as CSV through the table's compiled ingestion
// kernel and appends the accepted rows. Fields line up positionally with
// the table's columns and decode per column logical type: integers,
// fixed-point decimals ("12.34"), dates ("2024-01-31"), and
// dictionary-encoded strings (the value must already be in the column's
// dictionary — appends never grow dictionaries, which is what keeps
// cached predicates valid).
//
// Under IngestStrict a malformed row fails the whole batch: the report
// carries the offending line and nothing is appended. Under IngestSkip
// malformed rows are dropped and attributed in the report while the rest
// append. The kernel is compiled once per table and reused across
// batches, so the warm parse path performs zero heap allocations.
func (d *DB) AppendCSV(table string, data []byte, policy IngestPolicy) (IngestReport, error) {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	cat := d.db.Catalog()
	t := cat.Table(table)
	if t == nil {
		return IngestReport{}, fmt.Errorf("swole: AppendCSV: no table %s", table)
	}
	k, err := d.kernelLocked(t)
	if err != nil {
		return IngestReport{}, err
	}
	k.SetPolicy(policy)
	k.Reset()
	perr := k.Parse(data)
	rep := IngestReport{Accepted: k.Accepted(), Rejected: k.Rejected()}
	for _, re := range k.Errors() {
		rep.Errors = append(rep.Errors, re.Error())
	}
	if perr != nil {
		rep.Accepted = 0 // strict failure: the whole batch is refused
		return rep, perr
	}
	if k.Accepted() == 0 {
		return rep, nil
	}
	if err := d.appendColumns(cat, t, k.Columns()); err != nil {
		rep.Accepted = 0
		return rep, err
	}
	return rep, nil
}

// AppendRows appends row-major raw values: dictionary codes, day numbers,
// and fixed-point values exactly as Result.Rows exposes them. Every row
// must have one value per column; dictionary-encoded columns reject codes
// outside the dictionary.
func (d *DB) AppendRows(table string, rows [][]int64) error {
	if len(rows) == 0 {
		return nil
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	cat := d.db.Catalog()
	t := cat.Table(table)
	if t == nil {
		return fmt.Errorf("swole: AppendRows: no table %s", table)
	}
	cols := make([][]int64, len(t.Columns))
	for i := range cols {
		cols[i] = make([]int64, len(rows))
	}
	for r, row := range rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("swole: AppendRows: row %d has %d values, table %s has %d columns", r, len(row), table, len(t.Columns))
		}
		for c, v := range row {
			cols[c][r] = v
		}
	}
	for i, c := range t.Columns {
		if c.Dict == nil {
			continue
		}
		for r, v := range cols[i] {
			if v < 0 || v >= int64(c.Dict.Len()) {
				return fmt.Errorf("swole: AppendRows: row %d: %d is not a dictionary code of column %s", r, v, c.Name)
			}
		}
	}
	return d.appendColumns(cat, t, cols)
}

// kernelLocked returns the table's compiled CSV kernel, rebuilding it when
// the table's schema has drifted from the one the kernel was compiled for
// (a CreateTable under the same name). Callers hold writeMu.
func (d *DB) kernelLocked(t *storage.Table) (*ingest.Kernel, error) {
	if k := d.kernels[t.Name]; k != nil && kernelMatches(k.Schema(), t) {
		return k, nil
	}
	k, err := ingest.NewKernel(ingest.SchemaFor(t), ingest.Strict)
	if err != nil {
		return nil, err
	}
	d.kernels[t.Name] = k
	return k, nil
}

// kernelMatches reports whether a compiled kernel's schema still describes
// the table: same column names, kinds, and dictionary identities.
func kernelMatches(s ingest.Schema, t *storage.Table) bool {
	if len(s) != len(t.Columns) {
		return false
	}
	want := ingest.SchemaFor(t)
	for i := range s {
		if s[i] != want[i] { // Field is comparable; Dict compares by pointer
			return false
		}
	}
	return true
}

// appendColumns is the one write path under AppendCSV and AppendRows:
// build the replacement of t from cols (one column of values per table
// column, as long as each other), verify every constraint before
// registering anything, register it, then run the invalidation protocol.
// Callers hold writeMu and read t from cat under it.
func (d *DB) appendColumns(cat *storage.Catalog, t *storage.Table, cols [][]int64) error {
	// Build the replacement table and verify every constraint — foreign-key
	// extension, parent-key uniqueness — before registering anything, so a
	// failed append leaves no partial state.
	newCols := make([]*storage.Column, len(cols))
	for i, c := range t.Columns {
		newCols[i] = c.Append(cols[i])
	}
	newTab, err := storage.NewTable(t.Name, newCols...)
	if err != nil {
		return err
	}
	var childIdx []*storage.FKIndex // extended indexes where t is the child
	for _, idx := range cat.FKIndexes() {
		switch t.Name {
		case idx.Child:
			parent := cat.Table(idx.Parent)
			ext, err := storage.ExtendFKIndex(idx, newTab, parent)
			if err != nil {
				return err
			}
			childIdx = append(childIdx, ext)
		case idx.Parent:
			// Appending to a foreign key's parent: the new keys must keep the
			// primary key unique. Existing child positions stay valid — the
			// parent's prefix is untouched.
			if err := storage.ValidateUniqueKey(newTab.Column(idx.PK)); err != nil {
				return err
			}
		}
	}
	d.db.AddTable(newTab, childIdx...)

	// Invalidation protocol: the registration alone makes the cached plans
	// that bound t stale (their arrays are length-capped views of the old
	// data) — each sees it on its next run and re-prepares in place; the
	// stats merge folds the delta into cached statistics instead of dropping
	// them. Only this table is touched.
	d.engine.MergeStatsOnAppend(t, newTab)
	return nil
}
