package core

import (
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// Statistics: the sampled selectivities and group cardinalities that feed
// the cost models, and the cache in front of them.
//
// Sample once, evaluate vectorized. Every sampling site looks at the same
// rows of a table — positions 0, step, 2·step, … with step =
// max(1, rows/statsMaxSample) — so the engine keeps, per table, a strided
// copy of each column some expression has read (tableSample), and a miss
// binds the cache entry's clone of the expression to those copies and counts
// hits a tile at a time with the tile walker and the vec kernels, the way the
// query itself will run.
//
// Columns are immutable once a table is registered (see storage.Database),
// and a write registers a new table object, so a table object is its own
// version and a statistic sampled from it stays exact for as long as anyone
// holds it. The cache keys a selectivity or a group count on (table object,
// statistic kind, expression text) and a column's facts on the column object:
// an entry made from a replaced table cannot match the replacement, whichever
// catalog the compile that sampled it had pinned. InvalidateStats drops
// entries eagerly so replaced tables do not pin dead statistics, and an
// append moves them onto the new table (MergeStatsOnAppend).

type statsKind uint8

const (
	statSelectivity statsKind = iota // value stores a float64 in sel
	statGroups                       // value stores an int group count
	statRange                        // value stores a column's [lo, hi] and ascent; expr is the column name
)

// statsKey identifies one cached statistic. The expression's String() form
// is the fingerprint: bound expressions over the same column with the same
// constants render identically, which is exactly the reuse we want.
type statsKey struct {
	table *storage.Table  // the table object sampled, or the column's
	col   *storage.Column // statRange: the column whose facts the entry holds
	kind  statsKind
	expr  string // the expression's text; empty for statRange
}

type statsEntry struct {
	sel     float64
	groups  int
	lo, hi  int64
	ascends bool

	// Incremental-merge state for the append path (MergeStatsOnAppend):
	// e is a clone of the sampled expression, owned by the cache so
	// rebinding it against a sample or a delta view cannot race with the
	// live plan that supplied the original (every rebind happens under the
	// statistics lock); n counts rows sampled so far; d is the number of
	// distinct keys among them behind a group-count estimate, and keys those
	// keys, retained only while they stay under mergeableKeyCap.
	e    expr.Expr
	n, d int
	keys map[int64]struct{}
}

// mergeableKeyCap bounds the distinct-sample retained per group-count
// entry. Low-cardinality keys — the common GROUP BY case — merge exactly; a
// key that saturates the cap has its sample dropped, and the entry carries
// its (distinct, sampled) counts forward, re-estimated at each append's row
// count.
const mergeableKeyCap = 4096

// statsMaxSample is the sampling budget of every sampling site: planning and
// the append-time delta merge.
const statsMaxSample = 16384

// sampleStep is the distance between sampled rows of a rows-row table.
func sampleStep(rows int) int { return max(1, rows/statsMaxSample) }

// statsCache holds the sampled statistics. Zero value is ready.
//
// Selectivities live in their own bounded map: a stream of never-seen
// filters adds an entry per filter, and must not push out
// the few range and group-count entries, which cost a pass over a whole key
// column to rebuild and leave only when their table is replaced.
type statsCache struct {
	sel  map[statsKey]statsEntry // statSelectivity
	kept map[statsKey]statsEntry // statGroups, statRange
}

// maxSelectivityEntries bounds the selectivity map; past it the map is
// dropped wholesale. A selectivity is cheap to recompute relative to a
// query, so a rare full reset beats LRU bookkeeping on the hit path.
const maxSelectivityEntries = 1024

// maxKeptEntries is the size past which a put sweeps the entries of replaced
// tables of its table's name out of the kept map.
const maxKeptEntries = 1024

func (c *statsCache) get(k statsKey) (statsEntry, bool) {
	if k.kind == statSelectivity {
		e, ok := c.sel[k]
		return e, ok
	}
	e, ok := c.kept[k]
	return e, ok
}

func (c *statsCache) put(k statsKey, e statsEntry) {
	if k.kind == statSelectivity {
		if c.sel == nil || len(c.sel) >= maxSelectivityEntries {
			c.sel = make(map[statsKey]statsEntry)
		}
		c.sel[k] = e
		return
	}
	if c.kept == nil {
		c.kept = make(map[statsKey]statsEntry)
	}
	if len(c.kept) >= maxKeptEntries {
		// Only a table re-registered without InvalidateStats gets here: the
		// entries of the objects it replaced can never match again.
		for old := range c.kept {
			if old.table.Name == k.table.Name && old.table != k.table {
				delete(c.kept, old)
			}
		}
	}
	c.kept[k] = e
}

// each visits every entry of the named table; fn may delete.
func (c *statsCache) each(table string, fn func(m map[statsKey]statsEntry, k statsKey, e statsEntry)) {
	for _, m := range []map[statsKey]statsEntry{c.sel, c.kept} {
		for k, e := range m {
			if k.table.Name == table {
				fn(m, k, e)
			}
		}
	}
}

// invalidate drops every entry of every table object of the given name.
func (c *statsCache) invalidate(table string) {
	c.each(table, func(m map[statsKey]statsEntry, k statsKey, _ statsEntry) { delete(m, k) })
}

// tableSample is the sampled rows of one table object: the strided copy —
// same Name, Kind, Log and Dict — of every column an expression has read so
// far, drawn on first use. A table whose step is 1 is its own sample. The
// sample is valid for src alone: an append or a replacement registers a new
// table of new column objects, and gets a new sample.
type tableSample struct {
	src  *storage.Table
	step int
	view *storage.Table // the sampled columns, bindable like src
}

func newTableSample(t *storage.Table) *tableSample {
	ts := &tableSample{src: t, step: sampleStep(t.Rows()), view: t}
	if ts.step > 1 {
		ts.view = storage.MustNewTable(t.Name)
	}
	return ts
}

// rows is the number of sampled rows.
func (ts *tableSample) rows() int { return (ts.src.Rows() + ts.step - 1) / ts.step }

// bind binds x to the sampled columns, drawing the ones no expression has
// read before.
func (ts *tableSample) bind(x expr.Expr) error {
	if expr.Bind(x, expr.Columns(ts.view)) == nil {
		return nil
	}
	cols := ts.view.Columns[:len(ts.view.Columns):len(ts.view.Columns)]
	for _, name := range expr.Cols(x) {
		if ts.view.Column(name) != nil {
			continue
		}
		c := ts.src.Column(name)
		if c == nil {
			return errNoColumn(ts.src.Name, name)
		}
		cols = append(cols, strided(c, ts.step))
	}
	view, err := storage.NewTable(ts.src.Name, cols...)
	if err != nil {
		return err
	}
	ts.view = view
	return expr.Bind(x, expr.Columns(view))
}

// strided copies every step-th value of c, from row 0, into a column of the
// same physical and logical type.
func strided(c *storage.Column, step int) *storage.Column {
	out := &storage.Column{Name: c.Name, Kind: c.Kind, Log: c.Log, Dict: c.Dict}
	switch c.Kind {
	case storage.KindInt8:
		out.I8 = everyNth(c.I8, step)
	case storage.KindInt16:
		out.I16 = everyNth(c.I16, step)
	case storage.KindInt32:
		out.I32 = everyNth(c.I32, step)
	default:
		out.I64 = everyNth(c.I64, step)
	}
	return out
}

func everyNth[T any](vals []T, step int) []T {
	out := make([]T, 0, (len(vals)+step-1)/step)
	for i := 0; i < len(vals); i += step {
		out = append(out, vals[i])
	}
	return out
}

// sampler is the sample store and the tile scratch the statistics are
// evaluated on, all guarded by Engine.mu. Zero value is ready.
type sampler struct {
	tables map[string]*tableSample // by table name; each valid for its src only

	ev   *expr.Evaluator
	mask []byte
	vals []int64
}

// of returns t's sample, drawn anew when the one kept under t's name is of
// another table object. A new sample is kept only when t is cur, the table
// the catalog holds under its name: a compile that pinned a catalog before a
// write samples the replaced object without evicting the current one's.
func (s *sampler) of(t, cur *storage.Table) *tableSample {
	if ts := s.tables[t.Name]; ts != nil && ts.src == t {
		return ts
	}
	ts := newTableSample(t)
	if t != cur {
		return ts
	}
	if s.tables == nil {
		s.tables = map[string]*tableSample{}
	}
	s.tables[t.Name] = ts
	return ts
}

// sampleOf is t's sample (sampler.of); callers hold e.mu.
func (e *Engine) sampleOf(t *storage.Table) *tableSample {
	return e.samples.of(t, e.DB.Catalog().Table(t.Name))
}

func (s *sampler) scratch() {
	if s.ev == nil {
		s.ev = expr.NewEvaluator()
		s.mask, s.vals = make([]byte, vec.TileSize), make([]int64, vec.TileSize)
	}
}

// selectivity samples the predicate x, a tree the caller owns, over ts: the
// share of sampled rows x accepts, and the number of rows sampled.
func (s *sampler) selectivity(ts *tableSample, x expr.Expr) (sel float64, n int, err error) {
	n = ts.rows()
	if n == 0 {
		return 0, 0, nil
	}
	if err := ts.bind(x); err != nil {
		return 0, 0, err
	}
	s.scratch()
	hits := 0
	for base := 0; base < n; base += vec.TileSize {
		tl := min(vec.TileSize, n-base)
		s.ev.EvalBool(x, expr.Rows(base, tl), s.mask)
		hits += vec.CountOnes(s.mask[:tl])
	}
	return float64(hits) / float64(n), n, nil
}

// groupKeys folds the value of the key expression x, a tree the caller
// owns, at every sampled row of ts into seen and returns the number of rows
// sampled.
func (s *sampler) groupKeys(ts *tableSample, x expr.Expr, seen map[int64]struct{}) (int, error) {
	n := ts.rows()
	if err := ts.bind(x); err != nil {
		return 0, err
	}
	s.scratch()
	for base := 0; base < n; base += vec.TileSize {
		tl := min(vec.TileSize, n-base)
		s.ev.EvalInt(x, expr.Rows(base, tl), s.vals)
		for _, k := range s.vals[:tl] {
			seen[k] = struct{}{}
		}
	}
	return n, nil
}

// estimateGroups turns a distinct-sample (d distinct keys in n sampled of
// rows total) into a group-count estimate; if the sample saturates, the
// estimate scales linearly with the rows each sampled row stands for.
func estimateGroups(d, n, rows int) int {
	if d > n*3/4 {
		return d * rows / max(n, 1)
	}
	return d
}

// InvalidateStats drops the named table's cached statistics and its sample.
// Entries and samples are keyed on the table object they were drawn from, so
// this is about reclaiming memory (and about making eviction observable to
// tests), not correctness.
func (e *Engine) InvalidateStats(table string) {
	e.mu.Lock()
	e.stats.invalidate(table)
	delete(e.samples.tables, table)
	e.mu.Unlock()
}

// StatsCacheLen reports the number of cached statistics entries; exposed
// for tests and introspection.
func (e *Engine) StatsCacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.stats.sel) + len(e.stats.kept)
}

// SampledColumns reports how many column samples the engine holds for the
// named table; exposed for tests and introspection.
func (e *Engine) SampledColumns(table string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ts := e.samples.tables[table]; ts != nil && ts.step > 1 {
		return len(ts.view.Columns)
	}
	return 0
}

// selectivity returns the selectivity on t of a predicate bound to it, from
// cache when an entry sampled from t exists. cached reports a hit. A nil
// filter is selectivity 1 and never touches the cache.
func (e *Engine) selectivity(t *storage.Table, filter expr.Expr) (sel float64, cached bool) {
	if filter == nil {
		return 1.0, false
	}
	k := statsKey{table: t, kind: statSelectivity, expr: filter.String()}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.stats.get(k); ok {
		return ent.sel, true
	}
	clone := expr.Clone(filter)
	sel, n, err := e.samples.selectivity(e.sampleOf(t), clone)
	if err != nil {
		// Unreachable for a filter bound to t: estimate like the absent
		// filter and cache nothing.
		return 1.0, false
	}
	e.stats.put(k, statsEntry{sel: sel, e: clone, n: n})
	return sel, false
}

// groupCount returns the estimated distinct count on t of a key expression
// bound to it, from cache when an entry sampled from t exists.
func (e *Engine) groupCount(t *storage.Table, key expr.Expr) (groups int, cached bool) {
	k := statsKey{table: t, kind: statGroups, expr: key.String()}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.stats.get(k); ok {
		return ent.groups, true
	}
	rows := t.Rows()
	seen := map[int64]struct{}{}
	clone := expr.Clone(key)
	n, err := e.samples.groupKeys(e.sampleOf(t), clone, seen)
	if err != nil {
		return max(rows, 1), false // unreachable for a key bound to t: every row its own group
	}
	groups = 1
	if rows > 0 {
		groups = estimateGroups(len(seen), n, rows)
	}
	fresh := statsEntry{groups: groups, e: clone, n: n, d: len(seen), keys: seen}
	if len(seen) > mergeableKeyCap {
		fresh.e, fresh.keys = nil, nil // too wide to merge: an append re-estimates from n and d
	}
	e.stats.put(k, fresh)
	return groups, false
}

// colRange returns the smallest and largest value of a column of t.
// Group-key packing sizes key columns from it and a key-addressed group table
// bakes it in.
func (e *Engine) colRange(t *storage.Table, c *storage.Column) (lo, hi int64) {
	f := e.colFacts(t, c)
	return f.lo, f.hi
}

// ascendsFrom reports whether c ascends at every row from i on, given that
// it did before.
func ascendsFrom(c *storage.Column, i int, before bool) bool {
	for ; i < c.Len() && before; i++ {
		before = c.Get(i-1) <= c.Get(i)
	}
	return before
}

// colFacts returns the range of t's column c and whether it never decreases
// from one row to the next (an eager plan sorts its groups unless its
// parent's key ascends), from cache when an entry for this very column
// object exists. Columns are immutable, and an append or a replacement makes
// new ones, so an entry never goes stale.
func (e *Engine) colFacts(t *storage.Table, c *storage.Column) statsEntry {
	k := statsKey{table: t, col: c, kind: statRange}
	e.mu.Lock()
	ent, ok := e.stats.get(k)
	e.mu.Unlock()
	if ok {
		return ent
	}
	ent = statsEntry{ascends: ascendsFrom(c, 1, true)} // a descent ends the walk: a pass only over an ascending column
	ent.lo, ent.hi = c.Range()
	e.mu.Lock()
	e.stats.put(k, ent)
	e.mu.Unlock()
	return ent
}

// MergeStatsOnAppend folds appended rows into the cached statistics of old,
// the table an append replaced with t, instead of dropping them: each entry
// of old moves to t after reading only the delta rows [old.Rows(), t.Rows()),
// sampled and evaluated like a table of their own. Selectivities merge as
// row-count-weighted averages; group counts union the delta's keys into the
// retained distinct-sample; a column range becomes the union of the old range
// and the delta's, and an ascent checks the delta's rows, both moved to the
// new column object. A group count too wide to keep its keys
// (mergeableKeyCap) reads no delta: it is re-estimated from the distinct and
// sampled counts it keeps at the new row count. Entries of other objects of
// the name, selectivities without merge state and entries whose expressions
// no longer bind are dropped and re-sampled lazily, and so is the old table's
// sample.
func (e *Engine) MergeStatsOnAppend(old, t *storage.Table) {
	oldRows := old.Rows()
	var delta *tableSample
	if oldRows <= t.Rows() {
		if d, err := t.Slice(oldRows, t.Rows()); err == nil {
			delta = newTableSample(d)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.samples.tables, t.Name)
	type moved struct {
		k statsKey
		e statsEntry
	}
	var out []moved
	e.stats.each(t.Name, func(m map[statsKey]statsEntry, k statsKey, ent statsEntry) {
		delete(m, k)
		if k.table != old || delta == nil {
			return // another object's: re-sample lazily
		}
		dn := delta.src.Rows()
		switch k.kind {
		case statRange:
			// The entry's column is rows [0, oldRows) of the new one, so old
			// range ∪ delta range is the new column's, and it ascends if it did
			// and still does across the delta's rows.
			nc, dc := t.Column(k.col.Name), delta.src.Column(k.col.Name)
			if nc == nil {
				return
			}
			if dn > 0 {
				dlo, dhi := dc.Range()
				if oldRows == 0 {
					ent.lo, ent.hi = dlo, dhi
				} else {
					ent.lo, ent.hi = min(ent.lo, dlo), max(ent.hi, dhi)
				}
			}
			ent.ascends = ascendsFrom(nc, max(oldRows, 1), ent.ascends)
			k.col = nc
		case statSelectivity:
			if ent.e == nil {
				return // unmergeable: re-sample lazily
			}
			dsel, n, err := e.samples.selectivity(delta, ent.e)
			if err != nil {
				return // column vanished; shouldn't happen on appends
			}
			if dn > 0 {
				ent.sel = (ent.sel*float64(oldRows) + dsel*float64(dn)) / float64(oldRows+dn)
				ent.n += n
			}
		case statGroups:
			if ent.keys != nil {
				n, err := e.samples.groupKeys(delta, ent.e, ent.keys)
				if err != nil {
					return
				}
				ent.n, ent.d = ent.n+n, len(ent.keys)
				if ent.d > mergeableKeyCap {
					ent.e, ent.keys = nil, nil
				}
			}
			ent.groups = estimateGroups(ent.d, ent.n, t.Rows())
		}
		k.table = t
		out = append(out, moved{k, ent})
	})
	for _, r := range out {
		e.stats.put(r.k, r.e)
	}
}
