package swole

import (
	"fmt"

	"github.com/reprolab/swole/internal/storage"
)

// Table replacement (DESIGN.md §12). Every write registers a replacement
// table: CreateTable a new one, ReplaceRows the old rows around a new row
// range, the append path (append.go) the old rows plus a delta. Writers
// never block readers. Columns are immutable once registered, and plans
// bind their column arrays and foreign-key indexes from one catalog when
// they compile: a write builds the replacement off to the side and
// registers it in one step, an in-flight query finishes on the catalog it
// compiled against, and the plan cache's freshness check sees the new
// table object and recompiles the next one.

// ReplaceRows replaces rows [lo, hi) of the named table with new column
// data: lo == hi inserts at lo, empty columns delete the range, and
// [0, Rows()) replaces the whole table. The columns must match the table's
// schema (names, order, value kinds), and tables with string columns cannot
// be row-replaced (each replacement would need its values re-encoded
// through the shared dictionary). Every foreign-key index naming the table
// is rebuilt over the new rows, child or parent side; a key that no longer
// resolves, or a parent key that is no longer unique, refuses the write.
//
// Everything fallible runs first, so a refused replacement changes nothing.
// The new table object evicts the table's plans; its statistics are dropped.
// Queries in flight finish on the old arrays.
func (d *DB) ReplaceRows(name string, lo, hi int, cols ...Column) error {
	repl, err := newTable(name, cols)
	if err != nil {
		return err
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	cat := d.db.Catalog()
	old := cat.Table(name)
	if old == nil {
		return fmt.Errorf("swole: ReplaceRows: no table %s", name)
	}
	if lo < 0 || lo > hi || hi > old.Rows() {
		return fmt.Errorf("swole: ReplaceRows: rows [%d, %d) out of range 0..%d", lo, hi, old.Rows())
	}
	if err := matchSchema(old, repl); err != nil {
		return err
	}
	head, err := old.Slice(0, lo)
	if err != nil {
		return err
	}
	tail, err := old.Slice(hi, old.Rows())
	if err != nil {
		return err
	}
	full, err := concatTables(name, head, repl, tail)
	if err != nil {
		return err
	}
	return d.replaceTable(cat, full)
}

// replaceTable registers t in place of the table of its name in cat. Every
// foreign-key index naming the table is rebuilt first — as the child, its
// rows moved; as the parent, the positions its children address did — and
// table and indexes publish in one catalog, so a failed rebuild registers
// nothing. The table's plans and statistics are dropped. Callers hold
// writeMu and read cat under it.
func (d *DB) replaceTable(cat *storage.Catalog, t *storage.Table) error {
	var idx []*storage.FKIndex
	for _, fk := range cat.FKIndexes() {
		if fk.Child != t.Name && fk.Parent != t.Name {
			continue
		}
		child, parent := cat.Table(fk.Child), cat.Table(fk.Parent)
		if fk.Child == t.Name {
			child = t
		}
		if fk.Parent == t.Name {
			parent = t
		}
		rebuilt, err := storage.BuildFKIndex(child, fk.FK, parent, fk.PK)
		if err != nil {
			return err
		}
		idx = append(idx, rebuilt)
	}
	d.db.AddTable(t, idx...)
	d.invalidateTable(t.Name)
	return nil
}

// matchSchema verifies a replacement carries the table's exact column
// names, order, and value kinds, and no string columns.
func matchSchema(old, repl *storage.Table) error {
	if len(old.Columns) != len(repl.Columns) {
		return fmt.Errorf("swole: ReplaceRows: %s has %d columns, replacement has %d", old.Name, len(old.Columns), len(repl.Columns))
	}
	for i, oc := range old.Columns {
		rc := repl.Columns[i]
		if oc.Name != rc.Name {
			return fmt.Errorf("swole: ReplaceRows: column %d is %s, replacement has %s", i, oc.Name, rc.Name)
		}
		if oc.Dict != nil || rc.Dict != nil {
			return fmt.Errorf("swole: ReplaceRows: string column %s cannot be row-replaced", oc.Name)
		}
		if oc.Log != rc.Log {
			return fmt.Errorf("swole: ReplaceRows: column %s changes value kind", oc.Name)
		}
	}
	return nil
}

// concatTables materializes one table from row-range parts of one schema,
// widening each part's columns a tile kernel at a time and re-compressing
// the result to the narrowest width that holds it.
func concatTables(name string, parts ...*storage.Table) (*storage.Table, error) {
	total := 0
	for _, p := range parts {
		total += p.Rows()
	}
	cols := make([]*storage.Column, len(parts[0].Columns))
	for ci, proto := range parts[0].Columns {
		vals := make([]int64, total)
		off := 0
		for _, p := range parts {
			c := p.Columns[ci]
			c.WidenInto(0, c.Len(), vals[off:])
			off += c.Len()
		}
		cols[ci] = storage.Compress(proto.Name, vals, proto.Log)
	}
	return storage.NewTable(name, cols...)
}
