package swole

import (
	"context"
	"errors"
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
// The statement text is the cache's one key: a re-execution of the same
// bytes hits with a single map lookup and zero allocations, and a text that
// differs by a byte is a different statement. A new statement is parsed and
// synthesized, then published as an entry with no plan; its first run
// compiles it under the entry's lock, the way a stale entry re-prepares, so
// concurrent callers of a new statement share one compile.
//
// Each entry records the table objects its plan bound, all from the one
// catalog the compile pinned. Every write — CreateTable, an append,
// ReplaceRows — registers a new table object, so an entry is current
// exactly while the catalog still holds each of its tables. A replacement
// (CreateTable, ReplaceRows) evicts its table's entries at once, so no plan
// pins replaced data. An append leaves them in place: an entry checks its
// tables under its own lock before every run, and a stale one re-prepares
// itself there — it parses and synthesizes its text again, and
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

// cachedPlan is one statement and the header of its answer.
type cachedPlan struct {
	// mu serializes executions of this statement and guards plan, tables and
	// res: the plan's state and its result buffer are per-entry and reused
	// across runs, and the plan is compiled (nil until the first run) and
	// replaced under it. Different statements run in parallel.
	mu     sync.Mutex
	plan   *core.PreparedSelect
	tables []*storage.Table // the plan's tables (PreparedSelect.Tables)
	// res aliases the plan's flat result buffer; every run repoints it.
	res Result

	// Set once when the entry is published; read without c.mu.
	spec  core.Select // the synthesized statement: its table names never change
	shape string
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

// answer executes the statement and hands the result to fn under the entry
// lock: fn reads the plan-owned buffer in place while the engine's execution
// lock is already free for other statements. The lock is released by defer —
// fn is the caller's code, and its panic must not wedge the statement. A warm
// run allocates nothing. A cold or stale entry is compiled first (prepare);
// that run reports PlanCached false, and callers that waited on the lock
// replay its plan. A canceled run returns the context's error without calling
// fn, the entry and the plan's pooled resources intact for the next
// execution. An entry whose compile fails is dropped: err is the compile's,
// or ok is false, and fn not called, when the synthesizer or the compile
// declines the statement, and the caller takes the cold path.
func (c *cachedPlan) answer(ctx context.Context, d *DB, q string, fn func(*Result)) (ex Explain, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A write that lands after this check is benign: the run reads the
	// immutable arrays its plan bound, answering as of just before the swap.
	cached := c.plan != nil && c.fresh(d)
	if !cached {
		if ok, err := c.prepare(d, q); !ok || err != nil {
			d.mu.Lock()
			if d.plans[q] == c {
				delete(d.plans, q)
			}
			d.mu.Unlock()
			return Explain{}, ok, err
		}
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

// prepare compiles the entry's plan with core.Engine.Reprepare; callers hold
// c.mu. A cold entry compiles the spec it was published with (a nil prev
// makes Reprepare Prepare); a stale one parses and synthesizes its text
// again, and the engine moves the stale plan's buffers into the new plan. ok
// is false when the synthesizer declines the recompiled text, or the compile
// the statement: its group keys do not pack (core.ErrKeysUnpacked), which an
// append can make true of a cached statement.
func (c *cachedPlan) prepare(d *DB, q string) (ok bool, err error) {
	spec := c.spec
	if c.plan != nil {
		p, err := sql.Compile(q, d.db)
		if err != nil {
			return true, err
		}
		if spec, ok = core.Synthesize(d.db, p); !ok {
			return false, nil
		}
	}
	plan, err := d.engine.Reprepare(spec, c.plan)
	if errors.Is(err, core.ErrKeysUnpacked) {
		return false, nil
	}
	if err != nil {
		return true, err
	}
	if c.plan == nil {
		c.res = newResult(plan.Fields())
	}
	c.plan, c.tables, c.res.fields = plan, plan.Tables(), plan.Fields()
	return true, nil
}

// cachedRun serves a statement from the plan cache; found reports whether
// a cache entry handled it (possibly with an error — a canceled execution).
// The DB mutex covers only the map lookup; the run itself holds the entry's
// own lock, so different statements execute in parallel (down to the engine
// locks) while executions of one statement — which reuse the plan's result
// buffer — still serialize.
func (d *DB) cachedRun(ctx context.Context, q string, fn func(*Result)) (ex Explain, found bool, err error) {
	d.mu.RLock()
	c := d.plans[q]
	d.mu.RUnlock()
	if c == nil {
		return Explain{}, false, nil
	}
	return c.answer(ctx, d, q, fn)
}

// publish returns q's entry, inserting one for the synthesized spec, with no
// plan yet, when the cache holds none: of concurrent cold callers the first
// inserts, and the rest find its entry and wait on its lock.
func (d *DB) publish(q string, spec core.Select) *cachedPlan {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c := d.plans[q]; c != nil {
		return c
	}
	if len(d.plans) >= maxCachedPlans {
		d.plans = map[string]*cachedPlan{}
	}
	c := &cachedPlan{spec: spec, shape: planSignature(spec)}
	d.plans[q] = c
	return c
}

// invalidateTable evicts cached statistics and plans that read the named
// table — and only those; other tables' plans stay warm. Called on every
// replacement (replaceTable); an append leaves its plans to re-prepare
// themselves.
func (d *DB) invalidateTable(table string) {
	d.engine.InvalidateStats(table)
	d.mu.Lock()
	for q, c := range d.plans {
		if c.dependsOn(table) {
			delete(d.plans, q)
		}
	}
	d.mu.Unlock()
}

// PlanCacheLen reports the number of statements in the plan cache, one per
// text; exposed for tests and introspection. The benchmark reads only its
// change across a write, the entries that write evicted.
func (d *DB) PlanCacheLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.plans)
}

// SetWorkers pins the SWOLE executor's morsel worker count; 0 restores
// the default (GOMAXPROCS). Prepared plans bake in their worker count,
// so changing it clears the plan cache. The count is written under the lock
// the engine's compiles hold (core.Engine.Reconfigure), so a compile sees one
// worker count throughout; the cache is cleared after the write, so an entry
// published before the clear — whichever count its plan was compiled under —
// answers only the callers that already hold it and never serves again.
func (d *DB) SetWorkers(n int) {
	d.engine.Reconfigure(func() { d.engine.Workers = n })
	d.mu.Lock()
	d.plans = map[string]*cachedPlan{}
	d.mu.Unlock()
}

// Close releases the executor's persistent worker goroutines. The DB
// remains usable after Close (the gang respawns on demand); Close exists
// for goroutine hygiene when many DBs are created in one process.
func (d *DB) Close() { d.engine.Close() }
