package storage

import (
	"fmt"
	"sync"
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
	// Map parent key -> row. Primary keys in the workloads are dense
	// surrogates, but the index does not assume it.
	pos := map[int64]int32{}
	for i := 0; i < pkCol.Len(); i++ {
		k := pkCol.Get(i)
		if _, dup := pos[k]; dup {
			return nil, fmt.Errorf("storage: duplicate primary key %d in %s.%s", k, parent.Name, pk)
		}
		pos[k] = int32(i)
	}
	idx := &FKIndex{Child: child.Name, FK: fk, Parent: parent.Name, PK: pk, Pos: make([]int32, fkCol.Len())}
	for i := 0; i < fkCol.Len(); i++ {
		p, ok := pos[fkCol.Get(i)]
		if !ok {
			return nil, fmt.Errorf("storage: referential integrity violation: %s.%s[%d]=%d has no match in %s.%s",
				child.Name, fk, i, fkCol.Get(i), parent.Name, pk)
		}
		idx.Pos[i] = p
	}
	return idx, nil
}

// Database is a set of tables plus their foreign-key indexes.
//
// Registration maps are guarded by an internal lock, so lookups may race
// with AddTable/PutFKIndex: a reader sees either the old or the new
// registration, never a torn map. Column data itself is immutable once
// registered, so a stale *Table stays readable for as long as anyone
// holds it — which is what lets a writer replace a table while queries
// over the old registration keep running.
type Database struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	indexes map[string]*FKIndex // keyed child.fk->parent.pk
	// versions counts registrations per table name. Columns are immutable
	// once registered (the store is append-only at the table granularity:
	// the only mutation is replacing a whole table), so a table's version
	// changes exactly when its data can have changed — which is what the
	// statistics and plan caches key their validity on.
	versions map[string]uint64
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		tables:   map[string]*Table{},
		indexes:  map[string]*FKIndex{},
		versions: map[string]uint64{},
	}
}

// AddTable registers a table, replacing any previous table of that name
// and bumping the table's version so caches keyed on it invalidate. A
// write path that rebuilt the table's child foreign-key indexes passes
// them along: table and indexes then swap under one lock acquisition.
func (db *Database) AddTable(t *Table, childIdx ...*FKIndex) {
	db.mu.Lock()
	db.tables[t.Name] = t
	db.versions[t.Name]++
	for _, idx := range childIdx {
		db.indexes[fkKey(idx.Child, idx.FK, idx.Parent, idx.PK)] = idx
	}
	db.mu.Unlock()
}

// TableVersion returns the registration count of the named table: 0 if it
// was never registered, incremented every time AddTable (re)binds the
// name. Cached statistics and plans record the versions of the tables
// they depend on and are stale once any recorded version differs.
func (db *Database) TableVersion(name string) uint64 {
	db.mu.RLock()
	v := db.versions[name]
	db.mu.RUnlock()
	return v
}

// Table returns the named table or nil.
func (db *Database) Table(name string) *Table {
	db.mu.RLock()
	t := db.tables[name]
	db.mu.RUnlock()
	return t
}

// MustTable returns the named table or panics.
func (db *Database) MustTable(name string) *Table {
	t := db.Table(name)
	if t == nil {
		panic("storage: no table " + name)
	}
	return t
}

// Tables returns the table names in unspecified order.
func (db *Database) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	return names
}

func fkKey(child, fk, parent, pk string) string {
	return child + "." + fk + "->" + parent + "." + pk
}

// AddFKIndex builds and registers a foreign-key index.
func (db *Database) AddFKIndex(child, fk, parent, pk string) error {
	idx, err := BuildFKIndex(db.MustTable(child), fk, db.MustTable(parent), pk)
	if err != nil {
		return err
	}
	db.PutFKIndex(idx)
	return nil
}

// PutFKIndex registers a pre-built foreign-key index, replacing any
// previous index over the same columns.
func (db *Database) PutFKIndex(idx *FKIndex) {
	db.mu.Lock()
	db.indexes[fkKey(idx.Child, idx.FK, idx.Parent, idx.PK)] = idx
	db.mu.Unlock()
}

// FKIndexes returns a snapshot of the registered foreign-key indexes in
// unspecified order.
func (db *Database) FKIndexes() []*FKIndex {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*FKIndex, 0, len(db.indexes))
	for _, idx := range db.indexes {
		out = append(out, idx)
	}
	return out
}

// FK returns a registered foreign-key index or nil.
func (db *Database) FK(child, fk, parent, pk string) *FKIndex {
	db.mu.RLock()
	idx := db.indexes[fkKey(child, fk, parent, pk)]
	db.mu.RUnlock()
	return idx
}

// MustFK returns a registered foreign-key index or panics.
func (db *Database) MustFK(child, fk, parent, pk string) *FKIndex {
	idx := db.FK(child, fk, parent, pk)
	if idx == nil {
		panic("storage: no fk index " + fkKey(child, fk, parent, pk))
	}
	return idx
}
