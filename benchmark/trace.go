package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/sql"
	"github.com/reprolab/swole/internal/storage"
)

// The traced run. It climbs the layer ladder for every statement —
// sql → core.prepare → core.run → root warm → root copy → serve →
// volcano — timing each rung from outside the program, then runs the
// standalone kernel rungs, two pass loops (spans off, spans on) and the
// append, two-connection and two-worker experiments. Every call is a span
// in memory; the spans are written out when the run ends.

const (
	rungReps    = 20                     // repetitions of a rung ...
	rungMinReps = 3                      // ... cut down to no fewer than this ...
	rungBudget  = 100 * time.Millisecond // ... once a rung has used this much time
	adhocSample = 20                     // adhoc_compile statements on the ladder
)

// Ladder rung names, bottom to top.
const (
	rungSQL     = "sql"
	rungPrepare = "core.prepare"
	rungRun     = "core.run"
	rungCold    = "root.cold"
	rungWarm    = "root.warm"
	rungCopy    = "root.copy"
	rungServe   = "serve"
	rungVolcano = "volcano"
)

type tracedResult struct {
	tally
	values map[string]float64
	spans  int
	path   string
}

// ladder times rungs and remembers each rung's corrected median per
// statement. The reference kernel is sampled between statements, not
// between rungs: a statement's rungs are corrected together, by the
// samples taken before its first rung and after its last.
type ladder struct {
	tr      *tracer
	ref     *refKernel
	last    float64            // reference sample before the current statement
	pending map[string]float64 // raw rung medians of the current statement
	p50     map[string]map[*stmt]float64
}

// rung repeats fn, one span per call, and notes the median duration. fn
// returns the duration of the call it makes. once limits the rung to a
// single call (first executions, the oracle).
func (l *ladder) rung(name string, s *stmt, parent int, once bool, fn func() (time.Duration, error)) error {
	var durs []float64
	var spent time.Duration
	for len(durs) < rungReps {
		id := l.tr.begin(name, s.id, parent)
		d, err := fn()
		l.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", s.id, name, err)
		}
		durs = append(durs, ms(d))
		spent += d
		if once || (spent > rungBudget && len(durs) >= rungMinReps) {
			break
		}
	}
	l.pending[name] = median(durs)
	return nil
}

// settle ends a statement's ladder: it samples the reference kernel and
// corrects the statement's rungs.
func (l *ladder) settle(s *stmt) {
	before := l.last
	l.last = l.ref.ms()
	for name, raw := range l.pending {
		if l.p50[name] == nil {
			l.p50[name] = map[*stmt]float64{}
		}
		l.p50[name][s] = correctOne(raw, before, l.last)
	}
	clear(l.pending)
}

func (l *ladder) get(name string, s *stmt) (float64, bool) {
	v, ok := l.p50[name][s]
	return v, ok
}

// of collects a rung's medians over the statements that have one.
func (l *ladder) of(name string, ss []*stmt) []float64 {
	var out []float64
	for _, s := range ss {
		if v, ok := l.get(name, s); ok {
			out = append(out, v)
		}
	}
	return out
}

// gap collects rung a minus rung b over the statements that have both.
func (l *ladder) gap(a, b string, ss []*stmt) []float64 {
	var out []float64
	for _, s := range ss {
		x, ok1 := l.get(a, s)
		y, ok2 := l.get(b, s)
		if ok1 && ok2 {
			out = append(out, x-y)
		}
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func planNodes(n plan.Node) int {
	c := 1
	for _, in := range n.Inputs() {
		c += planNodes(in)
	}
	return c
}

func runTraced(w *workload, ref *refKernel, ck *checker, prov map[string]any, outDir string) (*tracedResult, error) {
	res := &tracedResult{values: map[string]float64{}}
	v := res.values
	t := &res.tally
	tr := newTracer(w.name)
	e, st, err := setUp(w, ref, ck, t, tr, true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	v["storage.load_s"] = st.load / 1e3
	if e.srv == nil {
		if err := e.startServer(); err != nil {
			return nil, err
		}
	}
	own, err := w.own()
	if err != nil {
		return nil, err
	}
	engine := core.NewEngine(own)
	engine.Workers = gatedWorkers
	defer engine.Close()

	// The ladder's statements: the workload's own (a sample of fresh ones
	// for adhoc_compile) plus the auxiliary ones that give every workload
	// classic specs and generic statements to time.
	n := w.tracePasses
	own1 := w.distinct
	if len(own1) == 0 {
		for _, p := range w.pass(w.warmup + 4*n)[:adhocSample] { // a pass no loop below runs
			own1 = append(own1, p.s)
		}
	}
	stmts := append(append([]*stmt(nil), own1...), w.aux...)
	executed := map[*stmt]bool{}
	for _, s := range w.distinct {
		executed[s] = true
	}

	l := &ladder{tr: tr, ref: ref, last: ref.ms(), pending: map[string]float64{}, p50: map[string]map[*stmt]float64{}}
	ctx := context.Background()
	var nodes []float64
	rowsOf := map[*stmt]int{}
	for _, s := range stmts {
		parent := tr.begin("ladder", s.id, -1)

		// volcano first: it also fetches the expected answer the rungs
		// above are checked against.
		if d, ok := ck.oracleDur[s]; ok {
			l.pending[rungVolcano] = ms(d)
		} else if err := l.rung(rungVolcano, s, parent, true, func() (time.Duration, error) {
			err := ck.expectStmt(e, e.state, s)
			return ck.oracleDur[s], err
		}); err != nil {
			return nil, err
		}

		var logical plan.Node
		if err := l.rung(rungSQL, s, parent, false, func() (time.Duration, error) {
			t0 := time.Now()
			p, err := sql.Compile(s.sql, own)
			logical = p
			return time.Since(t0), err
		}); err != nil {
			return nil, err
		}
		nodes = append(nodes, float64(planNodes(logical)))

		if s.classic != nil {
			var run coreRun
			if err := l.rung(rungPrepare, s, parent, false, func() (time.Duration, error) {
				t0 := time.Now()
				r, err := s.classic(engine)
				run = r
				return time.Since(t0), err
			}); err != nil {
				return nil, err
			}
			// A fresh plan allocates its tables on its first run; the rung
			// times the runs after it, as root.warm does.
			if _, _, err := run(ctx); err != nil {
				return nil, err
			}
			if err := l.rung(rungRun, s, parent, false, func() (time.Duration, error) {
				t0 := time.Now()
				digest, _, err := run(ctx)
				d := time.Since(t0)
				t.attempted++
				// The benchmark-owned copy never sees an append, so its
				// answers are those of the initial table state.
				if err == nil && s.wantState == "init" && digest() != s.want {
					t.fail("%s: core answer %v, oracle has %v", s.id, digest(), s.want)
				}
				return d, err
			}); err != nil {
				return nil, err
			}
		}

		local := func(full bool) func() (time.Duration, error) {
			return func() (time.Duration, error) {
				o, err := e.queryLocal(s, full)
				t.observe(e, s, o, err)
				rowsOf[s] = o.rows
				return o.dur, err
			}
		}
		if executed[s] {
			l.pending[rungCold] = st.coldMS[s] // first executed during set-up
		} else if err := l.rung(rungCold, s, parent, true, local(true)); err != nil {
			return nil, err
		}
		if err := l.rung(rungWarm, s, parent, false, local(false)); err != nil {
			return nil, err
		}
		if err := l.rung(rungCopy, s, parent, false, func() (time.Duration, error) {
			t0 := time.Now()
			r, ex, err := e.db.QueryContext(ctx, s.sql)
			d := time.Since(t0)
			o := obs{dur: d, ex: ex, hasEx: true, rows: -1}
			if err == nil {
				o.rows = r.NumRows()
			}
			t.observe(e, s, o, err)
			return d, err
		}); err != nil {
			return nil, err
		}
		if err := l.rung(rungServe, s, parent, false, func() (time.Duration, error) {
			o, err := e.queryHTTP(e.client, &e.body, s, false)
			t.observe(e, s, o, err)
			return o.dur, err
		}); err != nil {
			return nil, err
		}
		tr.end(parent)
		l.settle(s)
	}

	var classic, generic []*stmt
	for _, s := range stmts {
		if s.classic != nil {
			classic = append(classic, s)
		}
		if s.generic {
			generic = append(generic, s)
		}
	}
	v["sql.compile_us"] = median(l.of(rungSQL, stmts)) * 1e3
	v["sql.plan_nodes"] = sum(nodes) / float64(len(nodes))
	v["root.cold_ms"] = median(l.of(rungCold, stmts))
	v["root.warm_overhead_us"] = median(l.gap(rungWarm, rungRun, classic)) * 1e3
	v["root.clone_us"] = median(l.gap(rungCopy, rungWarm, stmts)) * 1e3
	v["core.prepare_us"] = median(l.of(rungPrepare, classic)) * 1e3
	v["core.select_run_ms"] = sum(l.of(rungWarm, generic))
	v["serve.query_rtt_p50_ms"] = median(l.of(rungServe, stmts))
	v["serve.overhead_us"] = median(l.gap(rungServe, rungCopy, stmts)) * 1e3
	v["volcano.oracle_ms"] = sum(l.of(rungVolcano, stmts))

	// core.run_ms is the core time of one pass: every operation of the
	// pass that has a hand-built spec contributes its core.run median. A
	// pass without such statements (tpch_generic, adhoc_compile) is
	// stood in for by the auxiliary classic statements.
	var coreRunMS float64
	for _, p := range w.pass(w.warmup) {
		if p.s != nil {
			if x, ok := l.get(rungRun, p.s); ok {
				coreRunMS += x
			}
		}
	}
	if coreRunMS == 0 {
		coreRunMS = sum(l.of(rungRun, w.aux))
	}
	v["core.run_ms"] = coreRunMS

	// Result encoding: the slope of the serving overhead between the
	// statements with the fewest and the most result rows.
	bySize := append([]*stmt(nil), stmts...)
	sort.SliceStable(bySize, func(a, b int) bool { return rowsOf[bySize[a]] < rowsOf[bySize[b]] })
	small, large := bySize[0], bySize[len(bySize)-1]
	if dr := rowsOf[large] - rowsOf[small]; dr > 0 {
		ends := l.gap(rungServe, rungCopy, []*stmt{small, large})
		v["serve.encode_us_per_krow"] = (ends[1] - ends[0]) * 1e3 / (float64(dr) / 1e3)
	}

	// One pass loop of 2n passes. Spans are recorded, and every answer
	// decoded, on every second pass; the ratio of the two halves is what
	// tracing costs, and the Explains feed the per-layer counters.
	before, err := scrape(e)
	if err != nil {
		return nil, err
	}
	loop := &tally{}
	both, err := measure(e, ref, ck, w.warmup, 2*n, loop, loopOpts{tr: tr, full: true, alternate: true})
	if err != nil {
		return nil, err
	}
	var pc, sc, plainRaw []float64
	for i, c := range both.corrected() {
		if i%2 == 0 {
			pc, plainRaw = append(pc, c), append(plainRaw, both.raw[i])
		} else {
			sc = append(sc, c)
		}
	}
	v["bench.pass_p50_ms"] = median(pc)
	v["bench.pass_p90_ms"] = quantile(pc, 0.9)
	v["bench.raw_pass_p50_ms"] = median(plainRaw)
	v["bench.raw_pass_p90_ms"] = quantile(plainRaw, 0.9)
	v["bench.ref_p50_ms"] = median(both.refs)
	v["bench.ref_spread"] = spread(both.refs)
	v["bench.trace_overhead_ratio"] = median(sc)/median(pc) - 1
	v["core.run_share"] = coreRunMS / median(pc)
	v["root.plan_cache_hit_ratio"] = ratio(loop.planHits, loop.explained)
	v["root.fallback_ratio"] = ratio(loop.fallbacks, loop.queries)
	v["core.fresh_allocs_per_stmt"] = ratio(loop.freshAllocs, loop.explained)
	v["core.pullup_ratio"] = ratio(loop.pullups, loop.explained)
	v["core.partitioned_ratio"] = ratio(loop.partitioned, loop.explained)
	v["ht.grows_per_stmt"] = ratio(loop.htGrows, loop.explained)
	if loop.selTotal > 0 {
		v["vec.dense_tile_ratio"] = float64(loop.selDense) / float64(loop.selTotal)
	}
	v["runtime.alloc_kb_per_stmt"] = float64(both.m1.TotalAlloc-both.m0.TotalAlloc) / 1024 / float64(both.ops)
	v["runtime.gc_cycles_per_kstmt"] = float64(both.m1.NumGC-both.m0.NumGC) * 1e3 / float64(both.ops)
	v["runtime.gc_pause_ms"] = float64(both.m1.PauseTotalNs-both.m0.PauseTotalNs) / 1e6

	if err := kernelRungs(w, own, ref, tr, v); err != nil {
		return nil, err
	}

	// Two connections against one: the same requests, split in halves.
	var reqs []*stmt
	for _, p := range w.pass(w.warmup) {
		if p.s != nil {
			reqs = append(reqs, p.s)
		}
	}
	reqs = reqs[:min(len(reqs), 20)]
	one, err := fanOut(e, reqs, 1, tr)
	if err != nil {
		return nil, err
	}
	two, err := fanOut(e, reqs, 2, tr)
	if err != nil {
		return nil, err
	}
	v["serve.c2_speedup"] = one / two

	// Appends. These change the fact table, so they come after everything
	// that was checked against the initial state.
	if err := appendRungs(e, own, ref, tr, l, own1[0], loop, v); err != nil {
		return nil, err
	}
	v["root.evictions_per_ingest"] = ratio(loop.evictions, loop.ingests)
	v["core.stats_cache_hit_ratio"] = ratio(t.statsHits+loop.statsHits, t.compiles+loop.compiles)

	after, err := scrape(e)
	if err != nil {
		return nil, err
	}
	if dq := after.queries - before.queries; dq > 0 {
		v["serve.admission_wait_ms"] = (after.waitSum - before.waitSum) * 1e3 / dq
		v["serve.rejected_ratio"] = (after.rejected - before.rejected) / dq
	}

	// Two workers against one, on the same pass. SetWorkers drops every
	// cached plan, so one unmeasured pass re-warms them first.
	e.db.SetWorkers(2)
	if _, err := measure(e, ref, ck, w.warmup+2*n, 1, loop, loopOpts{}); err != nil {
		return nil, err
	}
	duo, err := measure(e, ref, ck, w.warmup+2*n+1, max(3, n/2), loop, loopOpts{})
	if err != nil {
		return nil, err
	}
	e.db.SetWorkers(gatedWorkers)
	v["exec.w2_speedup"] = median(pc) / median(duo.corrected())

	// The appends must be visible: check the statements that were read
	// after them (all of them where the workload itself appends).
	final := []*stmt{own1[0], w.aux[0]}
	if w.http {
		final = w.distinct
	}
	if err := ck.verifyFinal(e, loop, final); err != nil {
		return nil, err
	}
	t.attempted += loop.attempted
	t.failed += loop.failed
	if t.firstFailure == "" {
		t.firstFailure = loop.firstFailure
	}

	res.spans = len(tr.spans)
	res.path, err = tr.write(outDir, prov, ladderRows(l, stmts))
	return res, err
}

// ladderRows renders the ladder: each rung's corrected median and its
// self time, the rung minus the rung beneath it. root.cold's self time
// is the part no lower rung covers — synthesize, sampling and, for
// generic statements, core.PrepareSelect — and is derived by subtraction
// because those entry points take values private to the root package.
func ladderRows(l *ladder, stmts []*stmt) []rungRow {
	beneath := map[string][]string{
		rungRun:   nil,
		rungWarm:  {rungRun},
		rungCopy:  {rungWarm},
		rungServe: {rungCopy},
		rungCold:  {rungSQL, rungPrepare, rungWarm},
	}
	var rows []rungRow
	for _, s := range stmts {
		for _, name := range []string{rungSQL, rungPrepare, rungRun, rungCold, rungWarm, rungCopy, rungServe, rungVolcano} {
			p, ok := l.get(name, s)
			if !ok {
				continue
			}
			self := p
			for _, b := range beneath[name] {
				if x, ok := l.get(b, s); ok {
					self -= x
				}
			}
			rows = append(rows, rungRow{Stmt: s.id, Rung: name, P50MS: p, SelfMS: self})
		}
	}
	return rows
}

// fanOut sends reqs over conns connections, split evenly, and returns the
// wall time in milliseconds.
func fanOut(e *env, reqs []*stmt, conns int, tr *tracer) (float64, error) {
	for _, s := range reqs { // warm plans and encode request bodies before the goroutines start
		if _, err := e.queryHTTP(e.client, &e.body, s, false); err != nil {
			return 0, err
		}
	}
	id := tr.begin(fmt.Sprintf("serve.fanout.c%d", conns), "", -1)
	defer tr.end(id)
	var wg sync.WaitGroup
	errs := make([]error, conns)
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			for i := c; i < len(reqs); i += conns {
				if _, err := e.queryHTTP(client, &buf, reqs[i], false); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	d := ms(time.Since(t0))
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

// served is the part of the server's /metrics the traced run reads.
type served struct {
	queries, rejected, waitSum float64
}

var (
	reQueries = regexp.MustCompile(`(?m)^swole_queries_total\{shape="[^"]*",outcome="([^"]*)"\} (\S+)$`)
	reWaitSum = regexp.MustCompile(`(?m)^swole_admission_wait_seconds_sum (\S+)$`)
)

func scrape(e *env) (served, error) {
	var s served
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return s, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	for _, m := range reQueries.FindAllSubmatch(b, -1) {
		n, _ := strconv.ParseFloat(string(m[2]), 64)
		s.queries += n
		if string(m[1]) == "rejected" {
			s.rejected += n
		}
	}
	if m := reWaitSum.FindSubmatch(b); m != nil {
		s.waitSum, _ = strconv.ParseFloat(string(m[1]), 64)
	}
	return s, nil
}

// csvOf renders rows [lo, hi) of a table as the CSV its ingestion kernel
// parses, so appended rows are copies of rows the table already holds and
// satisfy every foreign key.
func csvOf(t *storage.Table, lo, hi int) []byte {
	var b []byte
	for i := lo; i < hi; i++ {
		for c, col := range t.Columns {
			if c > 0 {
				b = append(b, ',')
			}
			switch col.Log {
			case storage.LogString:
				b = append(b, col.GetString(i)...)
			case storage.LogDate:
				b = append(b, storage.FormatDate(int32(col.Get(i)))...)
			case storage.LogDecimal:
				b = append(b, storage.FormatDecimal(col.Get(i))...)
			default:
				b = strconv.AppendInt(b, col.Get(i), 10)
			}
		}
		b = append(b, '\n')
	}
	return b
}
