package swole

import (
	"fmt"

	"github.com/reprolab/swole/internal/storage"
)

// Table shards (DESIGN.md §12). A shard is a write-side layout: a named
// contiguous row range of the one catalog table. ShardTable records K
// ranges, ReplaceShard swaps the rows of one of them, and appends route
// into the last one (append.go). Reads know nothing about it — every
// statement is one plan on the one engine over the full catalog table,
// parallelized by the one worker gang (SetWorkers) — so sharding a table
// changes what a writer can address, never how a query runs.
//
// Writers never block readers. The catalog always holds the full table,
// columns are immutable once registered, and plans bind their column
// arrays when they compile: a write builds a replacement table off to the
// side and registers it in one step, an in-flight query finishes on the
// catalog it compiled against, and the plan cache's freshness check sees the
// new table object and recompiles the next one. shardMu serializes writers against each
// other and guards only the layout metadata below.

// tableShards is the shard layout of one sharded table.
type tableShards struct {
	bounds []int // k+1 row-range boundaries into the catalog table
	// target is the nominal shard size fixed at ShardTable time. The
	// append path routes rows into the last shard until it reaches twice
	// the target, then grows a new shard (the shard-growth rule,
	// DESIGN.md §14), so appended data keeps roughly the layout the table
	// was split into without moving the bounds of live shards.
	target int
}

// k is the number of shards.
func (m *tableShards) k() int { return len(m.bounds) - 1 }

// ShardCount reports the number of row-range shards of the named table;
// 1 for unsharded (or unknown) tables.
func (d *DB) ShardCount(name string) int {
	d.shardMu.RLock()
	defer d.shardMu.RUnlock()
	if m := d.shardMeta[name]; m != nil {
		return m.k()
	}
	return 1
}

// ShardTable splits the named table into k contiguous row-range shards of
// near-equal size (at most one per row); k == 1 un-shards it. Only the
// bounds are recorded: no data is copied, and since no plan or statistic
// depends on the layout, none is evicted. Tables that are the parent of a
// registered foreign key cannot be sharded: replacing a shard of a parent
// would move the rows its children's indexes address by position.
func (d *DB) ShardTable(name string, k int) error {
	if k < 1 {
		return fmt.Errorf("swole: ShardTable: shard count %d, want at least 1", k)
	}
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	cat := d.db.Catalog()
	t := cat.Table(name)
	if t == nil {
		return fmt.Errorf("swole: ShardTable: no table %s", name)
	}
	for _, idx := range cat.FKIndexes() {
		if idx.Parent == name {
			return fmt.Errorf("swole: ShardTable: %s is the parent of foreign key %s.%s and cannot be sharded", name, idx.Child, idx.FK)
		}
	}
	rows := t.Rows()
	if k > rows && rows > 0 {
		k = rows
	}
	if k == 1 {
		delete(d.shardMeta, name)
		return nil
	}
	d.shardMeta[name] = &tableShards{bounds: storage.ShardRanges(rows, k), target: max((rows+k-1)/k, 1)}
	return nil
}

// ReplaceShard replaces the rows of one shard of a sharded table with new
// column data — the write path of the shard layer. The shard's row count
// may change; later shards' bounds shift with it. The columns must match
// the table's schema (names, order, value kinds), their foreign keys must
// resolve in the parent tables, and tables with string columns cannot be
// shard-replaced (each replacement would need its values re-encoded
// through the shared dictionary).
//
// Everything fallible runs first: the replacement table — the old rows
// before the shard, the new rows, the old rows after it — and its child
// foreign-key indexes are built off to the side, and only then are table,
// indexes and bounds registered together, so a failed replacement changes
// nothing. The new table object evicts the table's plans; its statistics
// are dropped. Queries in flight finish on the old arrays.
func (d *DB) ReplaceShard(name string, shard int, cols ...Column) error {
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	meta := d.shardMeta[name]
	if meta == nil {
		return fmt.Errorf("swole: ReplaceShard: table %s is not sharded", name)
	}
	if shard < 0 || shard >= meta.k() {
		return fmt.Errorf("swole: ReplaceShard: shard %d out of range 0..%d", shard, meta.k()-1)
	}
	sc := make([]*storage.Column, len(cols))
	for i, c := range cols {
		if c.err != nil {
			return c.err
		}
		if c.col == nil {
			return fmt.Errorf("swole: ReplaceShard: column %d of %s is uninitialized", i, name)
		}
		sc[i] = c.col
	}
	repl, err := storage.NewTable(name, sc...)
	if err != nil {
		return err
	}
	cat := d.db.Catalog()
	old := cat.Table(name)
	if err := matchSchema(old, repl); err != nil {
		return err
	}
	lo, hi := meta.bounds[shard], meta.bounds[shard+1]
	// Index only the new rows — that is the referential-integrity check —
	// and splice their positions between the old index's untouched ends.
	var newIdx []*storage.FKIndex
	for _, idx := range cat.FKIndexes() {
		if idx.Child != name {
			continue
		}
		ridx, err := storage.BuildFKIndex(repl, idx.FK, cat.Table(idx.Parent), idx.PK)
		if err != nil {
			return err
		}
		ridx.Pos = append(append(idx.Pos[:lo:lo], ridx.Pos...), idx.Pos[hi:]...)
		newIdx = append(newIdx, ridx)
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

	d.db.AddTable(full, newIdx...)
	for i := shard + 1; i < len(meta.bounds); i++ {
		meta.bounds[i] += repl.Rows() - (hi - lo)
	}
	d.evictPlans(name)
	d.engine.InvalidateStats(name)
	return nil
}

// matchSchema verifies a replacement shard carries the table's exact
// column names, order, and value kinds, and no string columns.
func matchSchema(old, repl *storage.Table) error {
	if len(old.Columns) != len(repl.Columns) {
		return fmt.Errorf("swole: ReplaceShard: %s has %d columns, replacement has %d", old.Name, len(old.Columns), len(repl.Columns))
	}
	for i, oc := range old.Columns {
		rc := repl.Columns[i]
		if oc.Name != rc.Name {
			return fmt.Errorf("swole: ReplaceShard: column %d is %s, replacement has %s", i, oc.Name, rc.Name)
		}
		if oc.Dict != nil || rc.Dict != nil {
			return fmt.Errorf("swole: ReplaceShard: string column %s cannot be shard-replaced", oc.Name)
		}
		if oc.Log != rc.Log {
			return fmt.Errorf("swole: ReplaceShard: column %s changes value kind", oc.Name)
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
