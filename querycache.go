package swole

import (
	"context"
	"strings"
	"sync"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/volcano"
)

// Plan cache: QuerySwole remembers every SWOLE-shaped statement it has
// executed as a prepared plan (*core.PreparedSelect). It is the only plan cache in
// the system — the core engine compiles plans but keeps none — and its
// tableDeps are the only invalidation path. A repeated
// statement skips the SQL frontend, the sampling pass, and the cost-model
// evaluation entirely, and executes on preallocated resources — the
// steady-state path allocates nothing after its first execution.
//
// Two keys index the cache. The raw statement text is the fast key: a
// byte-identical re-execution hits with a single map lookup and zero
// allocations. A whitespace-normalized form is the slow key, so that
// reformatted spellings of one statement ("select  sum(x)\nfrom t" vs
// "select sum(x) from t") share one prepared plan; raw-text aliases are
// installed on normalized hits (up to the cache bound), making every
// spelling fast from its second use.
//
// Each entry records the versions of the tables it reads. Entries whose
// tables have been replaced are dropped lazily on lookup, and
// CreateTable evicts eagerly (plans and statistics both), so a mutated
// table can never serve a stale answer.
//
// A cached statement's answer stays in the plan: the entry's Result is a
// header over the plan-owned flat buffer, which the statement's next
// execution overwrites. Callers take what must outlive that inside
// cachedPlan.answer: QueryContext copies, /query encodes, QuerySwole keeps
// the alias and says so.

// maxCachedPlans bounds the cache. Past the bound the cache is cleared
// wholesale: plans re-prepare in one execution, and a workload with more
// than maxCachedPlans distinct steady-state statements is not steady.
const maxCachedPlans = 256

// tableDep pins one input table at the version the plan was prepared
// against. Every write — CreateTable, an append, ReplaceShard — registers a
// replacement table and so moves the version; a plan bound to the old
// arrays is dropped on its next lookup, and only that table's plans are.
type tableDep struct {
	name string
	ver  uint64
}

// cachedPlan is one prepared statement and the header of its answer.
type cachedPlan struct {
	// mu serializes executions of this statement: the plan's state and its
	// result buffer are per-entry and reused across runs. Different
	// statements run in parallel.
	mu    sync.Mutex
	plan  *core.PreparedSelect
	shape string
	deps  []tableDep
	gen   uint64 // DB.configGen when the compile began

	// res aliases the plan's flat result buffer; every run repoints it.
	res Result
}

// setFields installs the result header.
func (c *cachedPlan) setFields(fields []core.OutField) {
	vf := make(volcano.Fields, len(fields))
	for i, f := range fields {
		vf[i] = volcano.Field{Name: f.Name, Dict: f.Dict, Log: f.Log}
	}
	c.res = newResult(vf)
}

// put points the entry's result at a plan's answer, which is the row
// layout already: nothing is copied and no row header is built.
func (c *cachedPlan) put(res *core.SelectResult) { c.res.flat = res.Flat }

// fresh reports whether every input table is still at its prepared
// version.
func (c *cachedPlan) fresh(d *DB) bool {
	for _, dep := range c.deps {
		if d.db.TableVersion(dep.name) != dep.ver {
			return false
		}
	}
	return true
}

// dependsOn reports whether the plan reads the named table.
func (c *cachedPlan) dependsOn(table string) bool {
	for _, dep := range c.deps {
		if dep.name == table {
			return true
		}
	}
	return false
}

// answer executes the prepared plan and hands the result to fn under the
// entry lock: fn reads the plan-owned buffer in place while the engine's
// execution lock is already free for other statements. The lock is released
// by defer — fn is the caller's code, and its panic must not wedge the
// statement. A warm run allocates nothing. A canceled run returns the
// context's error without calling fn, the entry and the plan's pooled
// resources intact for the next execution.
func (c *cachedPlan) answer(ctx context.Context, fn func(*Result)) (Explain, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, cex, err := c.plan.RunContext(ctx)
	ex := fromCore(cex)
	ex.Shape = c.shape
	if err != nil {
		return ex, err
	}
	c.put(res)
	fn(&c.res)
	return ex, nil
}

// normalizeQuery collapses runs of whitespace to single spaces so
// reformatted spellings of one statement share a cache entry. Case is
// preserved: string literals are case-significant, and a lowercased key
// would conflate them. Single-quoted literals are copied verbatim —
// whitespace inside them is data, and collapsing it would alias two
// statements that differ only inside a quoted string onto one plan.
// A doubled quote (”) inside a literal is the SQL escape for a quote,
// not a close-and-reopen, and stays inside the literal.
func normalizeQuery(q string) string {
	var b strings.Builder
	b.Grow(len(q))
	pendingSpace := false
	for i := 0; i < len(q); i++ {
		c := q[i]
		switch {
		case c == '\'':
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			b.WriteByte(c)
			for i++; i < len(q); i++ {
				b.WriteByte(q[i])
				if q[i] == '\'' {
					if i+1 < len(q) && q[i+1] == '\'' {
						i++
						b.WriteByte(q[i])
						continue
					}
					break
				}
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			pendingSpace = true
		default:
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			b.WriteByte(c)
		}
	}
	return b.String()
}

// cachedRun serves a statement from the plan cache; found reports whether
// a current cache entry handled it (possibly with an error — a canceled
// execution). The DB mutex covers only the map lookup; the run itself
// holds the entry's own lock, so different statements execute in
// parallel (down to the engine locks) while executions of one statement
// — which reuse the plan's result buffer — still serialize.
func (d *DB) cachedRun(ctx context.Context, q string, fn func(*Result)) (ex Explain, found bool, err error) {
	d.mu.Lock()
	c := d.plans[q]
	if c == nil {
		norm := normalizeQuery(q)
		if c = d.normPlans[norm]; c == nil {
			d.mu.Unlock()
			return Explain{}, false, nil
		}
		// Alias the raw spelling so its next execution is a single lookup —
		// within the cache bound: past it the spelling keeps resolving
		// through its normalized form.
		if len(d.plans) < maxCachedPlans {
			d.plans[q] = c
		}
	}
	d.mu.Unlock()
	// A plan going stale between this check and the run is benign — it
	// executes against the immutable arrays it was bound to, answering as of
	// just before the swap.
	if !c.fresh(d) {
		d.mu.Lock()
		d.dropPlanLocked(c)
		d.mu.Unlock()
		return Explain{}, false, nil
	}
	ex, err = c.answer(ctx, fn)
	return ex, true, err
}

// storePlan inserts a freshly prepared statement under both keys — unless
// the engine configuration changed since the compile began (c.gen), in
// which case the plan bakes in a configuration the cache was just cleared
// of and must not outlive this one execution.
func (d *DB) storePlan(q string, c *cachedPlan) {
	d.mu.Lock()
	if c.gen != d.configGen {
		d.mu.Unlock()
		return
	}
	if len(d.plans) >= maxCachedPlans || len(d.normPlans) >= maxCachedPlans {
		d.plans = map[string]*cachedPlan{}
		d.normPlans = map[string]*cachedPlan{}
	}
	d.plans[q] = c
	d.normPlans[normalizeQuery(q)] = c
	d.mu.Unlock()
}

// dropPlanLocked removes every key pointing at the entry. Callers hold
// d.mu.
func (d *DB) dropPlanLocked(c *cachedPlan) {
	for k, v := range d.plans {
		if v == c {
			delete(d.plans, k)
		}
	}
	for k, v := range d.normPlans {
		if v == c {
			delete(d.normPlans, k)
		}
	}
}

// invalidateTable evicts cached statistics and plans that read the named
// table. Called on every CreateTable.
func (d *DB) invalidateTable(table string) {
	d.engine.InvalidateStats(table)
	d.evictPlans(table)
}

// evictPlans drops the cached plans that read the named table — and only
// those; other tables' plans stay warm. The append path uses it directly
// (it merges the table's statistics instead of dropping them).
func (d *DB) evictPlans(table string) {
	d.mu.Lock()
	for k, c := range d.plans {
		if c.dependsOn(table) {
			delete(d.plans, k)
		}
	}
	for k, c := range d.normPlans {
		if c.dependsOn(table) {
			delete(d.normPlans, k)
		}
	}
	d.mu.Unlock()
}

// PlanCacheLen reports the number of distinct raw-text keys in the plan
// cache; exposed for tests and introspection.
func (d *DB) PlanCacheLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.plans)
}

// SetWorkers pins the SWOLE executor's morsel worker count; 0 restores
// the default (GOMAXPROCS). Prepared plans bake in their worker count,
// so changing it clears the plan cache. The count is written under the lock
// the engine's compiles hold (core.Engine.Reconfigure), so a compile sees one
// worker count throughout; the cache is cleared after the write, and the
// generation bump makes storePlan drop a statement that compiled under the
// old count but had not been stored yet — it answers its caller once and
// never enters the cache.
func (d *DB) SetWorkers(n int) {
	d.engine.Reconfigure(func() { d.engine.Workers = n })
	d.mu.Lock()
	d.configGen++
	d.plans = map[string]*cachedPlan{}
	d.normPlans = map[string]*cachedPlan{}
	d.mu.Unlock()
}

// Close releases the executor's persistent worker goroutines. The DB
// remains usable after Close (the gang respawns on demand); Close exists
// for goroutine hygiene when many DBs are created in one process.
func (d *DB) Close() { d.engine.Close() }
