package swole

import (
	"context"
	"strings"
	"sync"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/sql"
	"github.com/reprolab/swole/internal/storage"
)

// Plan cache: QuerySwole remembers every SWOLE-shaped statement it has
// executed as a prepared plan (*core.PreparedSelect). It is the only plan cache in
// the system — the core engine compiles plans but keeps none — and the
// table objects its plans bound are the only invalidation path. A repeated
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
// Each entry records the table objects its plan bound, all from the one
// catalog the compile pinned. Every write — CreateTable, an append,
// ReplaceRows — registers a new table object, so an entry is current
// exactly while the catalog still holds each of its tables. A replacement
// (CreateTable, ReplaceRows) evicts its table's entries at once, so no plan
// pins replaced data. An append leaves them in place: an entry checks its
// tables under its own lock before every run, and a stale one re-prepares
// itself there — it compiles its text again, as a cold statement does, and
// the engine moves the stale plan's buffers into the new plan
// (core.Engine.Reprepare): group tables of the same form, bitmaps, emission
// scratch and the result buffer, with every statistic, technique and form
// decided afresh. Concurrent callers wait on that lock, so one compile
// serves them all. A mutated table can never serve a stale answer.
//
// A cached statement's answer stays in the plan: the entry's Result is a
// header over the plan-owned flat buffer, which the statement's next
// execution overwrites — a re-prepared one too, since its plan took over the
// buffer. Callers take what must outlive that inside cachedPlan.answer:
// QueryContext copies, /query encodes, QuerySwole keeps the alias and says so.

// maxCachedPlans bounds the cache. Past the bound the cache is cleared
// wholesale: plans re-prepare in one execution, and a workload with more
// than maxCachedPlans distinct steady-state statements is not steady.
const maxCachedPlans = 256

// cachedPlan is one prepared statement and the header of its answer.
type cachedPlan struct {
	// mu serializes executions of this statement and guards plan, tables and
	// res: the plan's state and its result buffer are per-entry and reused
	// across runs, and a stale plan is replaced under it. Different
	// statements run in parallel.
	mu     sync.Mutex
	plan   *core.PreparedSelect
	tables []*storage.Table // the plan's tables (PreparedSelect.Tables)
	// res aliases the plan's flat result buffer; every run repoints it.
	res Result

	// Set once when the entry is built; read without c.mu.
	spec  core.Select // the first compile's: its table names never change
	shape string
	norm  string // the normalized text: the slow key
	gen   uint64 // DB.configGen when the compile began
}

// fresh reports whether the catalog still holds every table the plan bound:
// one lock-free catalog load and a pointer comparison per table. Callers hold
// c.mu.
func (c *cachedPlan) fresh(d *DB) bool {
	cat := d.db.Catalog()
	for _, t := range c.tables {
		if cat.Table(t.Name) != t {
			return false
		}
	}
	return true
}

// dependsOn reports whether the plan reads the named table.
func (c *cachedPlan) dependsOn(table string) bool {
	if c.spec.Root == table {
		return true
	}
	for _, e := range c.spec.Edges {
		if e.Parent == table {
			return true
		}
	}
	return false
}

// answer executes the prepared plan and hands the result to fn under the
// entry lock: fn reads the plan-owned buffer in place while the engine's
// execution lock is already free for other statements. The lock is released
// by defer — fn is the caller's code, and its panic must not wedge the
// statement. A warm run allocates nothing. A stale plan is replaced first:
// q compiles again, as a cold statement does, and core.Engine.Reprepare
// moves the stale plan's buffers into the new one; that run reports
// PlanCached false. A canceled run returns the context's error without
// calling fn, the entry and the plan's pooled resources intact for the next
// execution. ok is false, and fn not called, when the synthesizer declines
// the recompiled statement: the entry is dropped, and the caller takes the
// cold path.
func (c *cachedPlan) answer(ctx context.Context, d *DB, q string, fn func(*Result)) (ex Explain, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A write that lands after this check is benign: the run reads the
	// immutable arrays its plan bound, answering as of just before the swap.
	cached := c.fresh(d)
	if !cached {
		p, err := sql.Compile(q, d.db)
		if err != nil {
			return Explain{}, true, err
		}
		spec, ok := core.Synthesize(d.db, p)
		if !ok {
			d.mu.Lock()
			d.dropPlanLocked(c)
			d.mu.Unlock()
			return Explain{}, false, nil
		}
		plan, err := d.engine.Reprepare(spec, c.plan)
		if err != nil {
			return Explain{}, true, err
		}
		c.plan, c.tables, c.res.fields = plan, plan.Tables(), plan.Fields()
	}
	res, cex, err := c.plan.RunContext(ctx)
	ex = fromCore(cex)
	ex.Shape, ex.PlanCached = c.shape, cached
	if err != nil {
		return ex, true, err
	}
	c.res.flat = res.Flat // the row layout already: nothing is copied
	fn(&c.res)
	return ex, true, nil
}

// normalizeQuery collapses runs of whitespace (sql.IsSpace) to single spaces
// so reformatted spellings of one statement share a cache entry. Case is
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
		case sql.IsSpace(c):
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
// a cache entry handled it (possibly with an error — a canceled execution).
// The DB mutex covers only the map lookup; the run itself holds the entry's
// own lock, so different statements execute in parallel (down to the engine
// locks) while executions of one statement — which reuse the plan's result
// buffer — still serialize.
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
	return c.answer(ctx, d, q, fn)
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
	d.normPlans[c.norm] = c
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
// table — and only those; other tables' plans stay warm. Called on every
// replacement (replaceTable); an append leaves its plans to re-prepare
// themselves.
func (d *DB) invalidateTable(table string) {
	d.engine.InvalidateStats(table)
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
