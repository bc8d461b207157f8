package swole

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/vec"
)

// Edges of the generic executor's machinery — tile boundaries, empty
// inputs, key packing and its chained fallback, table growth, parent
// columns through chained edges, dictionary headers, cancellation — each
// against the interpreter, and where it matters under every technique.

// checkAllTechniques runs q through QuerySwole (cold and warm) and through
// every forced technique of its menu, each against the interpreter, and
// requires the synthesizer to compile it. It returns the interpreter's
// answer.
func checkAllTechniques(t *testing.T, d *DB, q string) [][]int64 {
	t.Helper()
	return checkEveryPath(t, d, q, "")
}

// checkEveryPath is checkAllTechniques with tag naming the configuration in
// failures.
func checkEveryPath(t *testing.T, d *DB, q, tag string) [][]int64 {
	t.Helper()
	want, err := d.Query(q)
	if err != nil {
		t.Fatalf("volcano failed %q: %v", q, err)
	}
	checkParity(t, d, q, false, tag+" QuerySwole cold", func() (*Result, Explain, error) { return d.QuerySwole(q) })
	checkParity(t, d, q, true, tag+" QuerySwole warm", func() (*Result, Explain, error) { return d.QuerySwole(q) })
	for _, tech := range d.engine.Techniques(synthesized(t, d, q)) {
		forced, err := d.engine.PrepareForced(synthesized(t, d, q), tech)
		if err != nil {
			t.Fatalf("%s %q forced %s: %v", tag, q, tech, err)
		}
		res, _, err := forced.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := forcedRows(forced, res); !rowsEqual(sortedRows(want.Rows()), sortedRows(got)) {
			t.Errorf("%s %q forced %s:\nvolcano: %.300v\nswole:   %.300v", tag, q, tech, sortedRows(want.Rows()), sortedRows(got))
		}
	}
	return want.Rows()
}

// synthesized compiles q into a spec of its own: a compile binds the spec's
// expression trees, so every compile gets fresh ones.
func synthesized(t *testing.T, d *DB, q string) core.Select {
	t.Helper()
	p, err := d.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := core.Synthesize(d.db, p)
	if !ok {
		t.Fatalf("%q: not synthesized", q)
	}
	return spec
}

// forcedRows reads a plan's answer through the statement cache's header.
func forcedRows(p *core.PreparedSelect, res *core.SelectResult) [][]int64 {
	r := newResult(p.Fields())
	r.flat = res.Flat
	return r.Rows()
}

// keysAscending reports whether the rows' first nk columns ascend
// lexicographically — the generic executor's result order.
func keysAscending(rows [][]int64, nk int) bool {
	for i := 1; i < len(rows); i++ {
		for c := 0; c < nk; c++ {
			if a, b := rows[i-1][c], rows[i][c]; a != b {
				if a > b {
					return false
				}
				break
			}
		}
	}
	return true
}

func seqTable(t *testing.T, rows int) *DB {
	t.Helper()
	k, v, w := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range k {
		k[i], v[i], w[i] = int64(i%7), int64(i%101-50), int64(i%13)
	}
	d := NewDB()
	if err := d.CreateTable("t", IntColumn("k", k), IntColumn("v", v), IntColumn("w", w)); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSelectTileBoundaries(t *testing.T) {
	for _, rows := range []int{0, 1, 1023, 1024, 1025} {
		d := seqTable(t, rows)
		got := checkAllTechniques(t, d, "select k, sum(v) as s, min(w) as lo, count(*) as n from t where v < 30 group by k")
		if rows == 0 && len(got) != 0 {
			t.Errorf("grouped statement over an empty table: %v", got)
		}
		got = checkAllTechniques(t, d, "select sum(v) as s, max(w) as hi, avg(v) as m, count(*) as n from t where v < 30")
		if len(got) != 1 {
			t.Errorf("rows=%d: scalar statement answered %d rows", rows, len(got))
		}
		d.Close()
	}
}

// A scalar aggregation over no qualifying rows is one row of zeros; the
// grouped form of the same statement has no rows.
func TestSelectNoQualifyingRows(t *testing.T) {
	d := seqTable(t, 3000)
	defer d.Close()
	got := checkAllTechniques(t, d, "select sum(v) as s, min(v) as lo, max(v) as hi, avg(v) as m, count(*) as n from t where v > 1000")
	if len(got) != 1 || fmt.Sprint(got[0]) != "[0 0 0 0 0]" {
		t.Errorf("scalar over no rows: %v", got)
	}
	if got = checkAllTechniques(t, d, "select k, sum(v) as s, count(*) as n from t where v > 1000 group by k"); len(got) != 0 {
		t.Errorf("grouped over no rows: %v", got)
	}
}

func TestSelectKeyPacking(t *testing.T) {
	const n = 4000
	mk := func(f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	val := mk(func(i int) int64 { return int64(i%19 - 9) })
	x := mk(func(i int) int64 { return int64(i % 10) })
	cases := []struct {
		name string
		keys [][]int64
	}{
		// Small span at the very bottom of int64: packs, and the digit of
		// MinInt64 itself — ht.NullKey as a raw key — is 0.
		{"near MinInt64", [][]int64{mk(func(i int) int64 { return math.MinInt64 + int64(i%5) })}},
		// Negative and positive keys over a span too wide for 63 bits: chained.
		{"full-range single key", [][]int64{mk(func(i int) int64 {
			return []int64{math.MinInt64, math.MinInt64 + 1, -7, 0, 3, math.MaxInt64 - 1, math.MaxInt64}[i%7]
		})}},
		// Two wide int64 columns whose composite cannot pack: chained pairwise.
		{"unpackable composite", [][]int64{
			mk(func(i int) int64 { return int64(i%6-3) * (1 << 40) }),
			mk(func(i int) int64 { return int64(i%4-2)*(1<<41) + int64(i%3) }),
		}},
		// Three columns, the middle one narrow: a three-level chain.
		{"three-level chain", [][]int64{
			mk(func(i int) int64 { return int64(i%3-1) * (1 << 50) }),
			mk(func(i int) int64 { return int64(i % 4) }),
			mk(func(i int) int64 { return int64(i%5-2) * (1 << 45) }),
		}},
		// Mixed signs that do pack.
		{"negative packable pair", [][]int64{
			mk(func(i int) int64 { return int64(i%9) - 100_000 }),
			mk(func(i int) int64 { return int64(i%4)*1000 - 2000 }),
		}},
	}
	for _, c := range cases {
		d := NewDB()
		cols := []Column{IntColumn("v", val), IntColumn("x", x)}
		var names []string
		for i, k := range c.keys {
			names = append(names, fmt.Sprintf("k%d", i))
			cols = append(cols, IntColumn(names[i], k))
		}
		if err := d.CreateTable("t", cols...); err != nil {
			t.Fatal(err)
		}
		list := strings.Join(names, ", ")
		q := "select " + list + ", sum(v) as s, count(*) as n from t where x < 6 group by " + list
		checkAllTechniques(t, d, q)
		res, _, err := d.QuerySwole(q)
		if err != nil {
			t.Fatal(err)
		}
		if !keysAscending(res.Rows(), len(names)) {
			t.Errorf("%s: result keys not ascending: %v", c.name, res.Rows())
		}
		d.Close()
	}
}

// A key whose sampled distinct count badly underestimates the truth: the
// group table grows during the first run, the answer is right, and the grown
// capacity is kept, so the next run does not grow.
func TestSelectGroupEstimateMiss(t *testing.T) {
	const rows = 1 << 16
	k, v := make([]int64, rows), make([]int64, rows)
	for i := range k {
		v[i] = int64(i % 11)
		if i%4 != 0 { // the sampler's stride of 4 only ever sees key 0
			k[i] = int64(i)
		}
	}
	d := NewDB()
	defer d.Close()
	if err := d.CreateTable("t", IntColumn("k", k), IntColumn("v", v)); err != nil {
		t.Fatal(err)
	}
	q := "select k, sum(v) as s, count(*) as n from t group by k"
	want, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	res, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Groups > rows/16 {
		t.Fatalf("estimate %d groups: the sampler saw through the skew, the test needs a new one", ex.Groups)
	}
	if ex.HTGrows == 0 {
		t.Errorf("first run: HTGrows=0 with %d groups against an estimate of %d", len(want.Rows()), ex.Groups)
	}
	if !rowsEqual(sortedRows(want.Rows()), sortedRows(res.Rows())) {
		t.Fatal("wrong answer after mid-scan growth")
	}
	res, ex, err = d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.HTGrows != 0 || ex.FreshAllocs != 0 {
		t.Errorf("second run: HTGrows=%d FreshAllocs=%d, want 0 and 0", ex.HTGrows, ex.FreshAllocs)
	}
	if !rowsEqual(sortedRows(want.Rows()), sortedRows(res.Rows())) {
		t.Fatal("wrong answer on the warm run")
	}
}

// Group keys and aggregate arguments on parent columns reached through a
// chained (snowflake) edge, mixed with root columns in one expression.
func TestSelectParentColumnsThroughSnowflake(t *testing.T) {
	d := fuzzDB(t, 3000)
	defer d.Close()
	for _, q := range []string{
		"select d3_v, d1_w, sum(d3_v + f_a) as s, min(d1_v) as lo, count(*) as n from f, d1, d3 where f_d1 = d1_pk and d1_fk3 = d3_pk group by d3_v, d1_w",
		"select d3_v, max(d3_v * f_b) as hi, avg(d1_v) as m from f, d1, d3 where f_d1 = d1_pk and d1_fk3 = d3_pk and f_a < 12 and d3_v > 3 group by d3_v having count(*) > 2",
		"select sum(d3_v) as s, min(d1_w + f_k) as lo from f, d1, d3 where f_d1 = d1_pk and d1_fk3 = d3_pk and (f_a < 5 or d3_v > 20)",
	} {
		checkAllTechniques(t, d, q)
	}
}

// Dictionary-encoded group keys keep their dictionary and logical type in
// the result header, so they render as strings.
func TestSelectDictionaryKeyHeader(t *testing.T) {
	const n = 2000
	names, v := make([]string, n), make([]int64, n)
	for i := range names {
		names[i], v[i] = []string{"cherry", "apple", "banana"}[i%3], int64(i%17)
	}
	d := NewDB()
	defer d.Close()
	if err := d.CreateTable("t", StringColumn("fruit", names), IntColumn("v", v)); err != nil {
		t.Fatal(err)
	}
	q := "select fruit, sum(v) as s, max(v) as hi from t where v > 2 group by fruit"
	checkAllTechniques(t, d, q)
	res, _, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.fields[0]; f.Dict == nil || f.Name != "fruit" {
		t.Fatalf("header lost the dictionary: %+v", f)
	}
	out := res.String()
	if a, b, c := strings.Index(out, "apple"), strings.Index(out, "banana"), strings.Index(out, "cherry"); a < 0 || b < a || c < b {
		t.Errorf("rendered result not in dictionary order:\n%s", out)
	}
}

// pollCtx reports the deadline as exceeded once Err has been called left
// times: a deterministic mid-scan cancellation, whichever workers poll it.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func newPollCtx(left int64) *pollCtx {
	c := &pollCtx{Context: context.Background()}
	c.left.Store(left)
	return c
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// A canceled first run returns the context's error and settles the plan:
// the next run of the same cached plan is correct and bills nothing. The
// grouped statement scans on one worker, the scalar one on four.
func TestSelectCancelMidScan(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 300_000, DimRows: 512, GroupKeys: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetWorkers(4)
	for _, q := range []string{
		"select r_a, sum(r_b) as s, max(r_c) as hi from r where r_x < 60 group by r_a",
		"select min(r_c) as lo, max(r_c) as hi, count(*) as n from r, s where r_fk = s_pk and s_x < 40",
	} {
		// The query's own entry check and the first morsels pass, then the
		// deadline hits with most of the scan still ahead.
		_, _, err := d.QueryContext(newPollCtx(4), q)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("canceled run of %q: err=%v, want DeadlineExceeded", q, err)
		}
		want, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		res, ex, err := d.QuerySwole(q)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.PlanCached || ex.FreshAllocs != 0 {
			t.Errorf("run after cancel of %q: PlanCached=%t FreshAllocs=%d, want true and 0", q, ex.PlanCached, ex.FreshAllocs)
		}
		if !rowsEqual(sortedRows(want.Rows()), sortedRows(res.Rows())) {
			t.Errorf("run after cancel of %q: wrong answer", q)
		}
	}
}

// A forced plan scans on the gang like any other, in the engine's morsels:
// with MorselRows at one tile, it polls its context before every tile-sized
// morsel.
func TestForcedScanPollsPerMorsel(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 64 * vec.TileSize, DimRows: 512, GroupKeys: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.engine.Reconfigure(func() { d.engine.MorselRows = vec.TileSize })
	p, err := d.Plan("select sum(r_a) as s from r where r_x < 50")
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := core.Synthesize(d.db, p)
	if !ok {
		t.Fatal("not synthesized")
	}
	forced, err := d.engine.PrepareForced(spec, core.TechValueMasking)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 20
	ctx := newPollCtx(budget)
	if _, _, err := forced.RunContext(ctx); err != nil {
		t.Fatal(err)
	}
	if polls := budget - ctx.left.Load(); polls < 64 {
		t.Errorf("a 64-tile scan in one-tile morsels polled its context %d times, want one per morsel", polls)
	}
}

// Generic plans share the engine's tile states: the kernel-variant counts of
// a canceled scan must not surface in the next plan's Explain.
func TestSelectCancelKeepsVariantsPerPlan(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 300_000, DimRows: 512, GroupKeys: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const other = "select r_a, sum(r_b) as s, max(r_c) as hi from r where r_x < 60 group by r_a"
	const q = "select min(r_c) as lo, max(r_c) as hi, count(*) as n from r where r_x < 40"
	_, clean, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Variants.Total() == 0 {
		t.Fatal("clean run counted no kernel variants: nothing to compare")
	}
	if _, _, err := d.QueryContext(newPollCtx(4), other); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled run: err=%v, want DeadlineExceeded", err)
	}
	_, after, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Variants != clean.Variants {
		t.Errorf("variants after another plan's canceled run: %+v, want %+v", after.Variants, clean.Variants)
	}
}

// A predicate that guards a division: the masking techniques evaluate the
// quotient on rejected lanes too, where the divisor may be zero, and must
// neither fault nor let those lanes into the answer.
func TestSelectGuardedDivision(t *testing.T) {
	const n = 5000
	a, b, k := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range a {
		a[i], b[i], k[i] = int64(i%97+1), int64(i%5), int64(i%3) // every fifth divisor is zero
	}
	d := NewDB()
	defer d.Close()
	if err := d.CreateTable("t", IntColumn("a", a), IntColumn("b", b), IntColumn("k", k)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"select sum(a / b) as s, count(*) as n from t where b <> 0",
		"select k, sum(a / b) as s, max(a / b) as hi from t where b > 0 group by k",
		"select k, sum(a / 3) as s, min(100 / b) as lo from t where b >= 1 group by k",
	} {
		checkAllTechniques(t, d, q)
	}
}

// tileSortedDB is a fact table f(tile, v, w, fk) whose tile column is the
// row's tile index, so a predicate on it decides whole vec.TileSize tiles,
// and a dimension p(pk, x) that f.fk references.
func tileSortedDB(t *testing.T, tiles int) *DB {
	t.Helper()
	rows := tiles*1024 + 300 // a short last tile
	tile, v, w, fk := make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range tile {
		tile[i], v[i], w[i], fk[i] = int64(i/1024), int64(i%101-50), int64(i%13), int64(i%64)
	}
	pk, x := make([]int64, 64), make([]int64, 64)
	for i := range pk {
		pk[i], x[i] = int64(i), int64(i%10)
	}
	d := NewDB()
	if err := d.CreateTable("p", IntColumn("pk", pk), IntColumn("x", x)); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("f", IntColumn("tile", tile), IntColumn("v", v), IntColumn("w", w), IntColumn("fk", fk)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddForeignKey("f", "fk", "p", "pk"); err != nil {
		t.Fatal(err)
	}
	return d
}

// A root disjunction accumulates its terms in the tile's mask and stops at
// a saturated tile; a conjunction stops at an emptied one. Tiles the first
// term accepts whole, tiles every term rejects whole, and an OR under a join
// edge with HAVING each equal the interpreter under every technique, at one
// and four workers, and allocate nothing once warm.
func TestSelectDisjunctionInTile(t *testing.T) {
	d := tileSortedDB(t, 6)
	defer d.Close()
	defer d.SetWorkers(0)
	for _, workers := range []int{1, 4} {
		d.SetWorkers(workers)
		for _, q := range []string{
			// Tiles 0-2 saturate on the first term; the later terms run on the rest.
			"select w, sum(v) as s, count(*) as n from f where tile < 3 or v > 40 or w = 5 group by w",
			"select sum(v) as s, min(w) as lo, count(*) as n from f where tile <= 6 or v > 1000",
			// Every term rejects tiles 0 and 3-6 whole.
			"select w, sum(v) as s, count(*) as n from f where tile = 1 or tile = 2 or (tile = 1 and v > 0) group by w",
			"select sum(v) as s, count(*) as n from f where tile > 50 or v > 1000 or w > 100",
			// A conjunction whose first term empties most tiles, and one under an OR.
			"select w, max(v) as hi, count(*) as n from f where tile = 4 and v < 10 and w <> 3 group by w",
			"select sum(v) as s, count(*) as n from f where (tile = 2 and v < 0) or (tile = 5 and not (w between 2 and 9))",
			// An OR under a join edge with HAVING.
			"select x, sum(v) as s, max(w) as hi from f, p where fk = pk and x < 7 and (tile < 2 or w = 0 or v > 45) group by x having sum(v) > -100000",
		} {
			checkAllTechniques(t, d, q)
			for rep := 0; rep < 2; rep++ {
				_, ex, err := d.QuerySwole(q)
				if err != nil {
					t.Fatal(err)
				}
				if rep == 1 && (!ex.PlanCached || ex.FreshAllocs != 0) {
					t.Errorf("workers=%d %q: warm run PlanCached=%t FreshAllocs=%d", workers, q, ex.PlanCached, ex.FreshAllocs)
				}
			}
			if raceEnabled {
				continue
			}
			if allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := d.QuerySwole(q); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("workers=%d %q: %.1f allocs per warm execution, want 0", workers, q, allocs)
			}
		}
	}
}

// Aggregates over structurally equal arguments fold from one operand vector:
// the answers are the interpreter's under every technique, Explain.Merged
// names the columns read once, and a masked scan widens them once per tile.
func TestSelectMergedOperands(t *testing.T) {
	d := tileSortedDB(t, 3)
	defer d.Close()
	for _, c := range []struct {
		q      string
		merged string
	}{
		{"select w, min(v) as lo, max(v) as hi from f where tile < 3 group by w", "[v]"},
		{"select min(v) as lo, sum(w) as s, max(v) as hi, avg(v) as m, count(*) as n from f where w > 2", "[v]"},
		{"select sum(v * w) as s, max(v * w) as hi, min(w) as lo, avg(w) as m from f where v > -20", "[v w]"},
		{"select x, min(v + x) as lo, max(v + x) as hi, sum(v) as s from f, p where fk = pk and x < 8 group by x", "[v x]"},
		{"select min(v) as lo, max(w) as hi from f where tile > 0", "[]"},
	} {
		checkAllTechniques(t, d, c.q)
		_, ex, err := d.QuerySwole(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(ex.Merged); got != c.merged {
			t.Errorf("%q: Merged=%s, want %s", c.q, got, c.merged)
		}
	}

	// Under value masking, min(v + w), max(v + w) evaluate their operand once
	// per tile: the key column w and v are each widened once, not v once per
	// aggregate. min(v), max(v) fold in one pass that reads the key and v in
	// place, widening nothing.
	const tiles = 4
	for _, c := range []struct {
		q     string
		widen uint64
	}{
		{"select w, min(v + w) as lo, max(v + w) as hi from f where tile < 3 group by w", 2 * tiles},
		{"select w, min(v) as lo, max(v) as hi from f where tile < 3 group by w", 0},
	} {
		p, err := d.Plan(c.q)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := core.Synthesize(d.db, p)
		forced, err := d.engine.PrepareForced(spec, core.TechValueMasking)
		if err != nil {
			t.Fatal(err)
		}
		_, ex, err := forced.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var widened uint64
		for _, n := range ex.Variants.Widen {
			widened += n
		}
		if widened != c.widen {
			t.Errorf("%q under value masking widened %d column tiles over %d tiles, want %d", c.q, widened, tiles, c.widen)
		}
	}
}
