package swole

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/storage"
)

// Intra-process table sharding (DESIGN.md §12). ShardTable splits a table
// into K contiguous row-range shards. Each shard lives in its own
// storage database inside a fleet member that also owns a private engine
// — its own stats cache, scatter arena, and worker gang — so K shards
// scan on K independent gangs with no shared execution state. A sharded
// statement compiles one plan per shard through the ordinary
// Prepare→run pipeline (prepareFan) and the plan cache fans its
// executions out (querycache.go), merging group partials with the same
// sorted merge-combine the worker merge uses (core.GroupMerger).
//
// Layout invariant: fleet member i's database holds, for every catalog
// table T, either T's row-range slice i (when T is sharded with at least
// i+1 shards) or the full catalog *Table pointer (replicated dimension
// tables). Foreign-key indexes follow the child: a sharded child's index
// is sliced per shard, with positions still addressing the replicated
// full parent. Column data is immutable once registered, so slices and
// replicas share backing arrays with the catalog — sharding copies no
// data.
//
// Write isolation: every (table, shard) pair has its own RWMutex. A
// fan-out run holds shard i's read lock only while shard i's partial
// executes; ReplaceShard holds shard i's write lock only while swapping
// shard i's registration. A writer to one shard therefore never blocks
// readers of any other shard.

// fleetShard is one member of the shard fleet: a private database (shard
// slices plus replicated dimension tables) and a private engine.
type fleetShard struct {
	db     *storage.Database
	engine *core.Engine
}

// tableShards is the shard layout of one sharded table.
type tableShards struct {
	k      int
	bounds []int // k+1 row-range boundaries into the catalog table
	locks  []*sync.RWMutex
	// target is the nominal shard size fixed at ShardTable time. The
	// append path routes rows into the last shard until it reaches twice
	// the target, then grows a new shard (the shard-growth rule,
	// DESIGN.md §14), so appended data keeps roughly the layout the
	// fan-out was costed for without re-slicing live shards.
	target int
}

// ShardCount reports the number of row-range shards of the named table;
// 1 for unsharded (or unknown) tables.
func (d *DB) ShardCount(name string) int {
	d.shardMu.RLock()
	defer d.shardMu.RUnlock()
	if m := d.shardMeta[name]; m != nil {
		return m.k
	}
	return 1
}

// shardEpoch returns the table's shard epoch: bumped by every ShardTable
// and ReplaceShard, it is what cached plans pin in addition to the
// catalog version, so re-sharding a table invalidates exactly that
// table's plans (see tableDep).
func (d *DB) shardEpoch(name string) uint64 {
	d.shardMu.RLock()
	e := d.shardEpochs[name]
	d.shardMu.RUnlock()
	return e
}

// ShardTable splits the named table into k contiguous row-range shards.
// k <= 0 asks the cost model (cost.Params.ShardFanout) to choose, which
// keeps small tables at K=1 — fan-out dispatch and merge would cost more
// than the split scan saves. k == 1 un-shards the table. Tables that are
// the parent of a registered foreign key cannot be sharded (they are
// replicated to every fleet member instead, which is what keeps sliced
// child indexes valid). Re-sharding bumps the table's shard epoch, so
// only plans reading this table are invalidated.
func (d *DB) ShardTable(name string, k int) error {
	t := d.db.Table(name)
	if t == nil {
		return fmt.Errorf("swole: ShardTable: no table %s", name)
	}
	for _, idx := range d.db.FKIndexes() {
		if idx.Parent == name {
			return fmt.Errorf("swole: ShardTable: %s is the parent of foreign key %s.%s and must stay replicated", name, idx.Child, idx.FK)
		}
	}
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	if k <= 0 {
		k = d.autoShards(t.Rows())
	}
	if k > t.Rows() && t.Rows() > 0 {
		k = t.Rows()
	}
	if err := d.ensureFleetLocked(k); err != nil {
		return err
	}
	bounds := storage.ShardRanges(t.Rows(), k)
	slices := make([]*storage.Table, k)
	for i := 0; i < k; i++ {
		sl, err := t.Slice(bounds[i], bounds[i+1])
		if err != nil {
			return err
		}
		slices[i] = sl
	}
	for i, fs := range d.fleet {
		if i < k {
			fs.db.AddTable(slices[i])
		} else {
			fs.db.AddTable(t) // replicate beyond the table's own fan-out
		}
	}
	for _, idx := range d.db.FKIndexes() {
		if idx.Child != name {
			continue
		}
		for i, fs := range d.fleet {
			if i < k {
				fs.db.PutFKIndex(idx.Slice(bounds[i], bounds[i+1]))
			} else {
				fs.db.PutFKIndex(idx)
			}
		}
	}
	if k <= 1 {
		delete(d.shardMeta, name)
	} else {
		locks := make([]*sync.RWMutex, k)
		for i := range locks {
			locks[i] = &sync.RWMutex{}
		}
		target := (t.Rows() + k - 1) / k
		if target < 1 {
			target = 1
		}
		d.shardMeta[name] = &tableShards{k: k, bounds: bounds, locks: locks, target: target}
	}
	d.shardEpochs[name]++
	// Layout changed, data did not: evict the table's plans (they bake the
	// old fan-out in) but keep its sampled statistics.
	d.evictPlans(name)
	return nil
}

// autoShards is the cost model's fan-out choice for a table of the given
// size: at most one shard per CPU (a shard's gain is a private worker
// gang; past the core count extra shards only add merge work), sized
// against a nominal steady-state group count. Callers hold d.shardMu
// exclusively: SetWorkers writes engine.Workers under its read side.
func (d *DB) autoShards(rows int) int {
	w := d.engine.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return d.engine.Params.ShardFanout(rows, autoShardGroups, w, runtime.NumCPU())
}

// autoShardGroups is the group-count assumption ShardTable's automatic
// mode prices the cross-shard merge with when the workload is unknown.
const autoShardGroups = 1024

// ensureFleetLocked grows the fleet to at least n members, installing
// the catalog's current tables and indexes into each new member per the
// layout invariant. Callers hold d.shardMu.
func (d *DB) ensureFleetLocked(n int) error {
	for i := len(d.fleet); i < n; i++ {
		sdb := storage.NewDatabase()
		for _, tn := range d.db.Tables() {
			t := d.db.Table(tn)
			if m := d.shardMeta[tn]; m != nil && i < m.k {
				sl, err := t.Slice(m.bounds[i], m.bounds[i+1])
				if err != nil {
					return err
				}
				sdb.AddTable(sl)
			} else {
				sdb.AddTable(t)
			}
		}
		for _, idx := range d.db.FKIndexes() {
			if m := d.shardMeta[idx.Child]; m != nil && i < m.k {
				sdb.PutFKIndex(idx.Slice(m.bounds[i], m.bounds[i+1]))
			} else {
				sdb.PutFKIndex(idx)
			}
		}
		e := core.NewEngine(sdb)
		e.Workers = d.engine.Workers
		e.Partition = d.engine.Partition
		e.Params = d.engine.Params
		d.fleet = append(d.fleet, &fleetShard{db: sdb, engine: e})
	}
	// Every member's cost model prices contention against the whole
	// fleet's gangs (cost.Params.Shards).
	for _, fs := range d.fleet {
		fs.engine.Params.Shards = len(d.fleet)
	}
	return nil
}

// ReplaceShard replaces the rows of one shard of a sharded table with
// new column data — the write path of the shard layer. Only the target
// shard's write lock is held during the swap, so queries over the other
// shards keep running; in-flight readers of the target shard finish on
// the old (immutable) arrays first. The shard's row count may change.
// Restrictions: the columns must match the table's schema (names, order,
// value kinds), and tables with string columns cannot be shard-replaced
// (each replacement would need its values re-encoded through the shared
// dictionary). The catalog's full table is rebuilt by concatenating the
// shards, so the interpreter and unsharded paths observe the new data,
// and the table's shard epoch and catalog version both advance.
func (d *DB) ReplaceShard(name string, shard int, cols ...Column) error {
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	meta := d.shardMeta[name]
	if meta == nil {
		return fmt.Errorf("swole: ReplaceShard: table %s is not sharded", name)
	}
	if shard < 0 || shard >= meta.k {
		return fmt.Errorf("swole: ReplaceShard: shard %d out of range 0..%d", shard, meta.k-1)
	}
	old := d.fleet[shard].db.Table(name)
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
	newTab, err := storage.NewTable(name, sc...)
	if err != nil {
		return err
	}
	if err := matchSchema(old, newTab); err != nil {
		return err
	}
	// Rebuild the shard's child foreign-key indexes against the replicated
	// parents before taking the write lock: index builds can fail
	// (referential integrity) and must not leave a half-swapped shard.
	var newIdx []*storage.FKIndex
	for _, idx := range d.db.FKIndexes() {
		if idx.Child != name {
			continue
		}
		parent := d.db.Table(idx.Parent)
		ridx, err := storage.BuildFKIndex(newTab, idx.FK, parent, idx.PK)
		if err != nil {
			return err
		}
		newIdx = append(newIdx, ridx)
	}
	meta.locks[shard].Lock()
	d.fleet[shard].db.AddTable(newTab)
	for _, idx := range newIdx {
		d.fleet[shard].db.PutFKIndex(idx)
	}
	meta.locks[shard].Unlock()
	// Rebuild the catalog's full table by concatenating the shard views,
	// so the interpreter and the unsharded engine serve the new data.
	parts := make([]*storage.Table, meta.k)
	for i := 0; i < meta.k; i++ {
		parts[i] = d.fleet[i].db.Table(name)
	}
	full, err := concatTables(name, parts)
	if err != nil {
		return err
	}
	d.db.AddTable(full)
	for _, idx := range d.db.FKIndexes() {
		if idx.Child != name {
			continue
		}
		if err := d.db.AddFKIndex(idx.Child, idx.FK, idx.Parent, idx.PK); err != nil {
			return err
		}
	}
	// The shard boundaries may have shifted with the new row count.
	meta.bounds = shardBounds(parts)
	d.shardEpochs[name]++
	d.evictPlans(name)
	d.engine.InvalidateStats(name)
	for _, fs := range d.fleet {
		fs.engine.InvalidateStats(name)
	}
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

// concatTables materializes one full table from per-shard views by
// copying values out through the logical accessor and re-compressing.
func concatTables(name string, parts []*storage.Table) (*storage.Table, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("swole: concat of zero shards of %s", name)
	}
	total := 0
	for _, p := range parts {
		total += p.Rows()
	}
	cols := make([]*storage.Column, len(parts[0].Columns))
	for ci, proto := range parts[0].Columns {
		vals := make([]int64, 0, total)
		for _, p := range parts {
			c := p.Columns[ci]
			for r := 0; r < c.Len(); r++ {
				vals = append(vals, c.Get(r))
			}
		}
		cols[ci] = storage.Compress(proto.Name, vals, proto.Log)
	}
	return storage.NewTable(name, cols...)
}

// shardBounds recomputes range boundaries from the shards' current row
// counts.
func shardBounds(parts []*storage.Table) []int {
	bounds := make([]int, len(parts)+1)
	for i, p := range parts {
		bounds[i+1] = bounds[i] + p.Rows()
	}
	return bounds
}

// prepareFan compiles the fan-out of a statement over a sharded driving
// table: the spec cloned (private expression trees) and prepared on each
// shard's engine, paired with that shard's lock. It returns a nil fan when
// the table is unsharded or the statement's partials do not merge (it
// lowered onto the generic executor). The compiles run inside one shardMu
// read section: an append that grows the layout by a shard rewrites the layout
// metadata and every fleet engine's cost parameters, and must do neither
// under a compile reading them.
func (d *DB) prepareFan(spec core.Select) ([]shardRun, error) {
	d.shardMu.RLock()
	defer d.shardMu.RUnlock()
	m := d.shardMeta[spec.Root]
	if m == nil || m.k <= 1 {
		return nil, nil
	}
	fan := make([]shardRun, 0, m.k)
	for i := 0; i < m.k; i++ {
		p, err := d.fleet[i].engine.Prepare(spec.Clone())
		if err != nil {
			return nil, err
		}
		if !p.Mergeable() {
			return nil, nil
		}
		fan = append(fan, shardRun{shard: i, plan: p, lock: m.locks[i]})
	}
	return fan, nil
}
