package storage

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// Table is a named collection of equal-length columns.
type Table struct {
	Name    string
	Columns []*Column
	byName  map[string]*Column
}

// NewTable builds a table, validating that all columns share one length.
func NewTable(name string, cols ...*Column) (*Table, error) {
	t := &Table{Name: name, Columns: cols, byName: make(map[string]*Column, len(cols))}
	n := -1
	for _, c := range cols {
		if n >= 0 && c.Len() != n {
			return nil, fmt.Errorf("storage: table %s: column %s has %d rows, want %d", name, c.Name, c.Len(), n)
		}
		n = c.Len()
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %s: duplicate column %s", name, c.Name)
		}
		t.byName[c.Name] = c
	}
	return t, nil
}

// MustNewTable is NewTable for statically correct schemas (generators).
func MustNewTable(name string, cols ...*Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// Rows returns the number of tuples.
func (t *Table) Rows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// Column returns the named column or nil.
func (t *Table) Column(name string) *Column { return t.byName[name] }

// MustColumn returns the named column or panics; used by the
// hand-specialized query kernels whose schemas are fixed.
func (t *Table) MustColumn(name string) *Column {
	c := t.byName[name]
	if c == nil {
		panic("storage: table " + t.Name + " has no column " + name)
	}
	return c
}

// MemBytes returns the total size of all column arrays.
func (t *Table) MemBytes() int {
	total := 0
	for _, c := range t.Columns {
		total += c.MemBytes()
	}
	return total
}

// FKIndex is a foreign-key index: for each row of the child table it stores
// the row offset of the matching parent tuple. The paper's Section III-D
// observes that such indexes are "typically enforced by building an index
// to check the corresponding primary key", so positional bitmap probes can
// reuse them at no extra cost.
type FKIndex struct {
	Child  string // child table name
	FK     string // foreign-key column in the child
	Parent string // parent table name
	PK     string // primary-key column in the parent
	Pos    []int32
}

// BuildFKIndex constructs the index, verifying referential integrity: every
// child foreign key must match exactly one parent primary key.
func BuildFKIndex(child *Table, fk string, parent *Table, pk string) (*FKIndex, error) {
	fkCol := child.Column(fk)
	pkCol := parent.Column(pk)
	if fkCol == nil || pkCol == nil {
		return nil, fmt.Errorf("storage: fk index %s.%s -> %s.%s: missing column", child.Name, fk, parent.Name, pk)
	}
	// Primary keys in the workloads are dense surrogates, which the locator
	// reads positionally, but the index does not assume it.
	pos, err := locatePK(pkCol, parent.Name+"."+pk)
	if err != nil {
		return nil, err
	}
	rows, i := pos.parentRows(make([]int32, 0, fkCol.Len()), fkCol, 0)
	if i >= 0 {
		return nil, fmt.Errorf("storage: referential integrity violation: %s.%s[%d]=%d has no match in %s.%s",
			child.Name, fk, i, fkCol.Get(i), parent.Name, pk)
	}
	return &FKIndex{Child: child.Name, FK: fk, Parent: parent.Name, PK: pk, Pos: rows}, nil
}

// fkKey names a foreign-key index by its columns. A struct key, so a lookup
// builds no string.
type fkKey struct{ child, fk, parent, pk string }

// Catalog is one registration state of a Database: its tables and
// foreign-key indexes, immutable once published. A reader that resolves a
// table and the indexes it probes from one Catalog gets a matching pair,
// whatever writers publish meanwhile. A registered *Table is its own
// version: a write registers a new table object, so a cached plan or
// statistic is current exactly while the catalog still holds the object it
// was made from.
type Catalog struct {
	tables  map[string]*Table
	indexes map[fkKey]*FKIndex
}

// Table returns the named table or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// FK returns a registered foreign-key index or nil.
func (c *Catalog) FK(child, fk, parent, pk string) *FKIndex {
	return c.indexes[fkKey{child, fk, parent, pk}]
}

// FKIndexes returns the registered foreign-key indexes in unspecified order.
func (c *Catalog) FKIndexes() []*FKIndex {
	out := make([]*FKIndex, 0, len(c.indexes))
	for _, idx := range c.indexes {
		out = append(out, idx)
	}
	return out
}

// Database is a set of tables plus their foreign-key indexes, held as one
// immutable Catalog behind an atomic pointer. A registration copies the
// current catalog under the writer lock, changes the copy and publishes it
// in one store; a reader pins the current catalog with one lock-free load
// (Catalog) and allocates nothing. Column data is immutable once
// registered, so a table of an older catalog stays readable for as long as
// anyone holds it — which is what lets a writer replace a table while
// queries over the old registration keep running.
type Database struct {
	mu  sync.Mutex // serializes registrations
	cat atomic.Pointer[Catalog]
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	db := &Database{}
	db.cat.Store(&Catalog{tables: map[string]*Table{}, indexes: map[fkKey]*FKIndex{}})
	return db
}

// Catalog pins the current registration state.
func (db *Database) Catalog() *Catalog { return db.cat.Load() }

// publish runs change on a copy of the current catalog and publishes the
// copy, under the writer lock.
func (db *Database) publish(change func(next *Catalog) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.cat.Load()
	next := &Catalog{tables: maps.Clone(cur.tables), indexes: maps.Clone(cur.indexes)}
	if err := change(next); err != nil {
		return err
	}
	db.cat.Store(next)
	return nil
}

// AddTable registers a table, replacing any previous table of that name. A
// write path that rebuilt the table's child foreign-key indexes passes them
// along: table and indexes then publish in one catalog.
func (db *Database) AddTable(t *Table, childIdx ...*FKIndex) {
	db.publish(func(next *Catalog) error {
		next.tables[t.Name] = t
		for _, idx := range childIdx {
			next.indexes[fkKey{idx.Child, idx.FK, idx.Parent, idx.PK}] = idx
		}
		return nil
	})
}

// Table returns the named table of the current catalog, or nil.
func (db *Database) Table(name string) *Table { return db.Catalog().Table(name) }

// MustTable returns the named table or panics.
func (db *Database) MustTable(name string) *Table {
	t := db.Table(name)
	if t == nil {
		panic("storage: no table " + name)
	}
	return t
}

// AddFKIndex builds and registers a foreign-key index over the current
// child and parent tables.
func (db *Database) AddFKIndex(child, fk, parent, pk string) error {
	return db.publish(func(next *Catalog) error {
		c, p := next.tables[child], next.tables[parent]
		if c == nil || p == nil {
			return fmt.Errorf("storage: fk index %s.%s -> %s.%s: no such table", child, fk, parent, pk)
		}
		idx, err := BuildFKIndex(c, fk, p, pk)
		if err != nil {
			return err
		}
		next.indexes[fkKey{child, fk, parent, pk}] = idx
		return nil
	})
}

// FK returns a foreign-key index of the current catalog, or nil.
func (db *Database) FK(child, fk, parent, pk string) *FKIndex {
	return db.Catalog().FK(child, fk, parent, pk)
}
