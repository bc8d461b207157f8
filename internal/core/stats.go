package core

import (
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
)

// Statistics cache. Sampling selectivities and group cardinalities is how
// the engine feeds the cost models, and for a repeated query shape the
// sampling pass dominates planning time: it touches maxSample rows and —
// for group counts — builds a throwaway map. Columns are immutable once a
// table is registered (see storage.Database), so a sampled statistic stays
// exact until the table name is re-bound. The cache therefore keys each
// entry on (table name, table version, statistic kind, expression text)
// and never needs explicit eviction for correctness: a stale entry simply
// stops matching once the version bumps. InvalidateStats drops entries
// eagerly so replaced tables do not pin dead statistics.

type statsKind uint8

const (
	statSelectivity statsKind = iota // value stores a float64 in selBits
	statGroups                       // value stores an int group count
	statRange                        // value stores a column's [lo, hi]; expr is the column name
)

// statsKey identifies one cached statistic. The expression's String() form
// is the fingerprint: bound expressions over the same column with the same
// constants render identically, which is exactly the reuse we want.
type statsKey struct {
	table string
	ver   uint64
	kind  statsKind
	expr  string
}

type statsEntry struct {
	sel    float64
	groups int
	lo, hi int64
	col    *storage.Column // the column lo and hi were read from

	// Incremental-merge state for the append path (MergeStatsOnAppend):
	// e is an unbound clone of the sampled expression, owned by the cache
	// so rebinding it against a delta view cannot race with the live plan
	// that supplied the original; n counts rows sampled so far; keys is
	// the distinct-sample behind a group-count estimate, retained only
	// while it stays under mergeableKeyCap.
	e    expr.Expr
	n    int
	keys map[int64]struct{}
}

// mergeableKeyCap bounds the distinct-sample retained per group-count
// entry. Low-cardinality keys — the common GROUP BY case — merge exactly;
// a key that saturates the cap has its sample dropped and the entry falls
// back to full re-sampling on the next append.
const mergeableKeyCap = 4096

// statsMaxSample is the sampling budget, shared by the planning-time
// sampling sites and the append-time delta merge.
const statsMaxSample = 16384

// statsCache is a bounded map of sampled statistics. Zero value is ready.
type statsCache struct {
	m map[statsKey]statsEntry
}

// maxStatsEntries bounds the cache; past it the map is dropped wholesale.
// Statistics are cheap to recompute relative to queries, so a rare full
// reset beats LRU bookkeeping on the hit path.
const maxStatsEntries = 1024

func (c *statsCache) get(k statsKey) (statsEntry, bool) {
	e, ok := c.m[k]
	return e, ok
}

func (c *statsCache) put(k statsKey, e statsEntry) {
	if c.m == nil || len(c.m) >= maxStatsEntries {
		c.m = make(map[statsKey]statsEntry)
	}
	c.m[k] = e
}

// invalidate drops every entry that references the named table at any
// version.
func (c *statsCache) invalidate(table string) {
	for k := range c.m {
		if k.table == table {
			delete(c.m, k)
		}
	}
}

// InvalidateStats drops cached statistics for the named table. Entries
// self-invalidate via table versions, so this is about reclaiming memory
// (and about making eviction observable to tests), not correctness.
func (e *Engine) InvalidateStats(table string) {
	e.mu.Lock()
	e.stats.invalidate(table)
	e.mu.Unlock()
}

// StatsCacheLen reports the number of cached statistics entries; exposed
// for tests and introspection.
func (e *Engine) StatsCacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.stats.m)
}

// selectivity returns the predicate's selectivity on the table, from cache
// when a current-version entry exists. cached reports a hit. A nil filter
// is selectivity 1 and never touches the cache.
func (e *Engine) selectivity(table string, rows int, filter expr.Expr, maxSample int) (sel float64, cached bool) {
	if filter == nil {
		return 1.0, false
	}
	k := statsKey{table: table, ver: e.DB.TableVersion(table), kind: statSelectivity, expr: filter.String()}
	e.mu.Lock()
	ent, ok := e.stats.get(k)
	e.mu.Unlock()
	if ok {
		return ent.sel, true
	}
	sel = sampleSelectivity(filter, rows, maxSample)
	e.mu.Lock()
	e.stats.put(k, statsEntry{sel: sel, e: expr.Clone(filter), n: min(rows, maxSample)})
	e.mu.Unlock()
	return sel, false
}

// groupCount returns the estimated distinct count of the key expression on
// the table, from cache when a current-version entry exists.
func (e *Engine) groupCount(table string, rows int, key expr.Expr, maxSample int) (groups int, cached bool) {
	k := statsKey{table: table, ver: e.DB.TableVersion(table), kind: statGroups, expr: key.String()}
	e.mu.Lock()
	ent, ok := e.stats.get(k)
	e.mu.Unlock()
	if ok {
		return ent.groups, true
	}
	seen := map[int64]struct{}{}
	n := 0
	if rows > 0 {
		n = sampleGroupKeys(key, rows, maxSample, seen)
	}
	groups = 1
	if rows > 0 {
		groups = estimateGroups(len(seen), n, rows)
	}
	fresh := statsEntry{groups: groups, e: expr.Clone(key), n: n, keys: seen}
	if len(seen) > mergeableKeyCap {
		fresh.e, fresh.keys = nil, nil // too wide to merge; re-sample on append
	}
	e.mu.Lock()
	e.stats.put(k, fresh)
	e.mu.Unlock()
	return groups, false
}

// colRange returns the smallest and largest value of a column of the named
// table, from cache when a current-version entry exists. Group-key packing
// sizes key columns from it and a key-addressed group table bakes it in, so
// a stale answer would be a wrong result, not a worse plan: a hit must come
// from this very column object (columns are immutable; an append or a
// replacement makes new ones). The answer is cached only when c is the
// catalog's column at the version the key names — a compile that overlaps a
// write may hold an older table — so an entry's column is always its
// version's column, which is what lets an append merge the entry instead of
// dropping it.
func (e *Engine) colRange(table string, c *storage.Column) (lo, hi int64) {
	k := statsKey{table: table, ver: e.DB.TableVersion(table), kind: statRange, expr: c.Name}
	e.mu.Lock()
	ent, ok := e.stats.get(k)
	e.mu.Unlock()
	if ok && ent.col == c {
		return ent.lo, ent.hi
	}
	lo, hi = c.Range()
	if t := e.DB.Table(table); t != nil && t.Column(c.Name) == c && e.DB.TableVersion(table) == k.ver {
		e.mu.Lock()
		e.stats.put(k, statsEntry{lo: lo, hi: hi, col: c})
		e.mu.Unlock()
	}
	return lo, hi
}

// MergeStatsOnAppend folds appended rows into the cached statistics of the
// named table instead of dropping them: each entry recorded at oldVer is
// re-keyed to the current version after reading only the delta rows
// [oldRows, Rows). Selectivities merge as row-count-weighted averages;
// group counts union the delta's keys into the retained distinct-sample; a
// column range becomes the union of the old range and the delta's, pinned
// to the new column object. Entries without merge state (or whose
// expressions no longer bind) are dropped and re-sampled lazily.
func (e *Engine) MergeStatsOnAppend(table string, oldVer uint64, oldRows int) {
	t := e.DB.Table(table)
	newVer := e.DB.TableVersion(table)
	if t == nil || newVer == oldVer {
		return
	}
	var delta *storage.Table
	if oldRows <= t.Rows() {
		delta, _ = t.Slice(oldRows, t.Rows())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	type rekeyed struct {
		k statsKey
		e statsEntry
	}
	var out []rekeyed
	for k, ent := range e.stats.m {
		if k.table != table {
			continue
		}
		delete(e.stats.m, k)
		if k.ver != oldVer || delta == nil {
			continue // stale: re-sample lazily
		}
		dn := delta.Rows()
		if k.kind == statRange {
			// The entry's column held rows [0, oldRows) of the new one (see
			// colRange), so old range ∪ delta range is the new column's.
			nc, dc := t.Column(k.expr), delta.Column(k.expr)
			if nc == nil || ent.col == nil || ent.col.Len() != oldRows {
				continue
			}
			if dn > 0 {
				dlo, dhi := dc.Range()
				if oldRows == 0 {
					ent.lo, ent.hi = dlo, dhi
				} else {
					ent.lo, ent.hi = min(ent.lo, dlo), max(ent.hi, dhi)
				}
			}
			ent.col = nc
			out = append(out, rekeyed{statsKey{table: table, ver: newVer, kind: k.kind, expr: k.expr}, ent})
			continue
		}
		if ent.e == nil {
			continue // unmergeable: re-sample lazily
		}
		if err := expr.Bind(ent.e, delta); err != nil {
			continue // column vanished; shouldn't happen on appends
		}
		switch k.kind {
		case statSelectivity:
			if dn > 0 {
				dsel := sampleSelectivity(ent.e, dn, statsMaxSample)
				ent.sel = (ent.sel*float64(oldRows) + dsel*float64(dn)) / float64(oldRows+dn)
				ent.n += min(dn, statsMaxSample)
			}
		case statGroups:
			if ent.keys == nil {
				continue
			}
			if dn > 0 {
				ent.n += sampleGroupKeys(ent.e, dn, statsMaxSample, ent.keys)
			}
			if len(ent.keys) > mergeableKeyCap {
				continue
			}
			ent.groups = estimateGroups(len(ent.keys), ent.n, t.Rows())
		}
		out = append(out, rekeyed{statsKey{table: table, ver: newVer, kind: k.kind, expr: k.expr}, ent})
	}
	for _, r := range out {
		e.stats.put(r.k, r.e)
	}
}
