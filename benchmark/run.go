package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// tally counts checked operations and, from their Explains, the per-layer
// counters of the traced run.
type tally struct {
	attempted, failed int

	queries, explained   int
	planHits, fallbacks  int
	compiles, statsHits  int // executions that were not plan-cached
	pullups, partitioned int
	freshAllocs, htGrows int
	selDense, selTotal   uint64
	ingests              int
	evictions            int
	firstFailure         string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

var pullupTechniques = map[string]bool{
	"value-masking": true, "key-masking": true, "access-merging": true,
	"positional-bitmap": true, "eager-aggregation": true,
}

// observe checks one executed query and counts it.
func (t *tally) observe(e *env, s *stmt, o obs, err error) {
	t.attempted++
	t.queries++
	switch {
	case err != nil:
		t.fail("%s: %v", s.id, err)
	case o.fallback:
		t.fallbacks++
		t.fail("%s: interpreter-fallback", s.id)
	case s.countsRows && o.hasAns && o.value != int64(e.rowsInR):
		t.fail("%s: %d rows visible, %d appended", s.id, o.value, e.rowsInR)
	case s.wantState == e.state && o.rows >= 0 && o.rows != s.want.Rows:
		t.fail("%s: %d rows, oracle has %d", s.id, o.rows, s.want.Rows)
	case s.wantState == e.state && o.hasAns && o.ans != s.want:
		t.fail("%s: answer %v, oracle has %v", s.id, o.ans, s.want)
	}
	if err != nil || !o.hasEx {
		return
	}
	t.explained++
	if o.ex.PlanCached {
		t.planHits++
	} else {
		t.compiles++
		if o.ex.StatsCached {
			t.statsHits++
		}
	}
	if pullupTechniques[o.ex.Technique] {
		t.pullups++
	}
	if o.ex.Partitioned {
		t.partitioned++
	}
	t.freshAllocs += o.ex.FreshAllocs
	t.htGrows += o.ex.HTGrows
	v := o.ex.Variants
	t.selDense += v.SelDense
	t.selTotal += v.SelSparse + v.SelMid + v.SelDense
}

// runPass walks one operation list and returns the summed duration of
// the calls in milliseconds. Checking happens between the timed calls.
// digests, when non-nil, collects the answers in order (adhoc_compile
// folds them per pass).
func (e *env) runPass(ops []op, t *tally, tr *tracer, parent int, full bool, digests *[]answer) float64 {
	var total float64
	for _, p := range ops {
		if p.s == nil {
			before := e.db.PlanCacheLen()
			id := tr.begin("ingest", "", parent)
			d, n, err := e.ingest(p.csv, e.w.http)
			tr.end(id)
			total += ms(d)
			t.attempted++
			t.ingests++
			t.evictions += before - e.db.PlanCacheLen()
			if err != nil || n != ingestRows {
				t.fail("ingest: %d rows accepted: %v", n, err)
			}
			continue
		}
		id := tr.begin("query", p.s.id, parent)
		o, err := e.query(p.s, full)
		tr.end(id)
		total += ms(o.dur)
		t.observe(e, p.s, o, err)
		if digests != nil {
			*digests = append(*digests, o.ans)
		}
	}
	return total
}

// setupTimes are the corrected and raw durations, in milliseconds, of
// one set-up's steps.
type setupTimes struct {
	load, serve, cold, warmup float64 // corrected
	raw                       float64
	coldMS                    map[*stmt]float64 // raw, per statement
}

func (s setupTimes) total() float64 { return s.load + s.serve + s.cold + s.warmup }

// setUp performs one set-up: load the dataset, start the server if the
// workload has one, execute every distinct statement cold, then W
// warm-up passes. The reference kernel runs between the steps and each
// step is corrected by the samples on both of its sides. With verify set, the
// cold answers are checked against the golden file or the oracle before
// the warm-up passes change any table.
func setUp(w *workload, ref *refKernel, ck *checker, t *tally, tr *tracer, verify bool) (*env, setupTimes, error) {
	var st setupTimes
	// Consecutive steps share the samples taken between them.
	edge := ref.samples(setupRefSamples)
	step := func(name string, fn func() (float64, error)) (float64, error) {
		before := edge
		id := tr.begin("setup."+name, "", -1)
		raw, err := fn()
		tr.end(id)
		st.raw += raw
		edge = ref.samples(setupRefSamples)
		return correctOne(raw, append(before, edge...)...), err
	}

	var e *env
	var err error
	st.load, err = step("load", func() (float64, error) {
		t0 := nowMS()
		db, err := w.load()
		if err != nil {
			return 0, err
		}
		db.SetWorkers(gatedWorkers)
		e = newEnv(w, db)
		return nowMS() - t0, nil
	})
	if err != nil {
		return nil, st, err
	}
	if w.http {
		st.serve, err = step("serve", func() (float64, error) {
			t0 := nowMS()
			err := e.startServer()
			return nowMS() - t0, err
		})
		if err != nil {
			return nil, st, err
		}
	}
	cold := make([]obs, len(w.distinct))
	errs := make([]error, len(w.distinct))
	st.cold, _ = step("cold", func() (float64, error) {
		var total float64
		query := e.query
		if tr != nil { // the traced run wants root.cold without the server
			query = e.queryLocal
		}
		for i, s := range w.distinct {
			cold[i], errs[i] = query(s, verify)
			total += ms(cold[i].dur)
		}
		return total, nil
	})
	st.coldMS = map[*stmt]float64{}
	for i, s := range w.distinct {
		st.coldMS[s] = ms(cold[i].dur)
	}
	if verify {
		if err := ck.expectInitial(e); err != nil {
			return nil, st, err
		}
		edge = ref.samples(setupRefSamples) // the oracle took a while
	}
	for i, s := range w.distinct {
		t.observe(e, s, cold[i], errs[i])
	}
	st.warmup, _ = step("warmup", func() (float64, error) {
		var total float64
		for g := 0; g < w.warmup; g++ {
			total += e.runPass(w.pass(g), t, nil, -1, false, nil)
		}
		return total, nil
	})
	return e, st, nil
}

// phase is one measured pass loop: the raw pass durations, the n+1
// reference samples around them and the allocation counters before and
// after.
type phase struct {
	raw, refs []float64
	ops       int
	m0, m1    runtime.MemStats
}

func (p phase) corrected() []float64 { return correct(p.raw, p.refs, windowRadius) }

// loopOpts vary a pass loop. A positive limit ends the loop early on a
// host far slower than usual (see phaseCapFactor). tr records a span per
// pass and operation, and full decodes every answer; with alternate set
// both apply to every second pass only, so that the traced and untraced
// halves of one loop see the same host drift.
type loopOpts struct {
	limit     time.Duration
	tr        *tracer
	full      bool
	alternate bool
}

// measure runs passes from..from+n-1 with the reference kernel sampled
// before the first and after every pass. Every pass is built, and for
// adhoc_compile its expected answers fetched, before the clock starts, so
// statement generation stays out of the measured phase.
func measure(e *env, ref *refKernel, ck *checker, from, n int, t *tally, o loopOpts) (phase, error) {
	p := phase{raw: make([]float64, n), refs: make([]float64, n+1)}
	lists := make([][]op, n)
	for i := range lists {
		lists[i] = e.w.pass(from + i)
	}
	folds, err := ck.expectPasses(e, from, n)
	if err != nil {
		return p, err
	}
	var digests []answer
	runtime.GC()
	runtime.ReadMemStats(&p.m0)
	p.refs[0] = ref.ms()
	began := time.Now()
	for i, ops := range lists {
		if o.limit > 0 && i >= minPasses && time.Since(began) > o.limit {
			p.raw, p.refs = p.raw[:i], p.refs[:i+1]
			break
		}
		tr, full := o.tr, o.full
		if o.alternate && i%2 == 0 {
			tr, full = nil, false
		}
		p.ops += len(ops)
		digests = digests[:0]
		id := tr.begin("pass", "", -1)
		p.raw[i] = e.runPass(ops, t, tr, id, full, &digests)
		tr.end(id)
		if f, ok := folds[i]; ok && fold(digests) != f {
			t.fail("pass %d: folded answers %v, oracle has %v", from+i, fold(digests), f)
		}
		p.refs[i+1] = ref.ms()
	}
	runtime.ReadMemStats(&p.m1)
	return p, nil
}

// gatedResult is the outcome of one gated run.
type gatedResult struct {
	tally
	metrics map[string]float64 // end-to-end
	audit   map[string]any     // bench.*: what the correction did
}

// runGated is the untraced run behind every end-to-end metric: the
// set-up repeated setups times, verification, then a fixed number of
// measured passes.
func runGated(w *workload, passes, setups int, limit time.Duration, ref *refKernel, ck *checker) (*gatedResult, error) {
	res := &gatedResult{}
	var e *env
	var cor, raw []float64
	for k := 0; k < setups; k++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		last := k == setups-1
		t := &tally{}
		if last {
			t = &res.tally
		}
		var st setupTimes
		var err error
		e, st, err = setUp(w, ref, ck, t, nil, last)
		if err != nil {
			return nil, err
		}
		cor = append(cor, st.total())
		raw = append(raw, st.raw)
	}
	defer e.close()
	resetPeakRSS()

	p, err := measure(e, ref, ck, w.warmup, passes, &res.tally, loopOpts{limit: limit})
	if err != nil {
		return nil, err
	}
	if e.state != "init" {
		if err := ck.verifyFinal(e, &res.tally, w.distinct); err != nil {
			return nil, err
		}
	}

	pc := p.corrected()
	res.metrics = map[string]float64{
		"setup_s":         median(cor) / 1e3,
		"pass_p50_ms":     median(pc),
		"stmts_per_s":     float64(p.ops) / (sum(pc) / 1e3),
		"allocs_per_stmt": float64(p.m1.Mallocs-p.m0.Mallocs) / float64(p.ops),
		"peak_rss_mb":     peakRSSMB(),
	}
	res.audit = map[string]any{
		"bench.raw_pass_p50_ms": median(p.raw),
		"bench.raw_pass_p90_ms": quantile(p.raw, 0.9),
		"bench.pass_p90_ms":     quantile(pc, 0.9),
		"bench.ref_p50_ms":      median(p.refs),
		"bench.ref_spread":      spread(p.refs),
		"bench.raw_setup_s":     median(raw) / 1e3,
		"bench.raw_measured_s":  sum(p.raw) / 1e3,
		"bench.passes_done":     float64(len(p.raw)),
		"raw_pass_ms":           p.raw,
		"ref_ms":                p.refs,
	}
	return res, nil
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's peak-RSS watermark, so that VmHWM at the end of the run is the
// peak of the loaded database plus the measured phase. The loaders'
// transient garbage is left out on purpose: how high it piles up before a
// collection ends depends on GC timing, and made the unreset peak differ
// by 10-25 % between identical runs. Where /proc/self/clear_refs cannot
// be written, the watermark simply stays.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
