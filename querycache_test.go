package swole

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// cacheTestDB builds a small mutable table for invalidation tests.
func cacheTestDB(t *testing.T, scale int64) *DB {
	t.Helper()
	d := NewDB()
	n := 4096
	a := make([]int64, n)
	x := make([]int64, n)
	c := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = scale * int64(i%7)
		x[i] = int64(i % 10)
		c[i] = int64(i % 5)
	}
	if err := d.CreateTable("t", IntColumn("a", a), IntColumn("x", x), IntColumn("c", c)); err != nil {
		t.Fatal(err)
	}
	return d
}

// rowsAsMap keys a two-column result by its first column.
func rowsAsMap(t *testing.T, r *Result) map[int64]int64 {
	t.Helper()
	out := map[int64]int64{}
	for _, row := range r.Rows() {
		if len(row) != 2 {
			t.Fatalf("want 2 columns, got %d", len(row))
		}
		out[row[0]] = row[1]
	}
	return out
}

// TestPlanCacheHit checks a repeated statement is served from the plan
// cache with the same answer, and that a whitespace-reformatted spelling
// shares the entry.
func TestPlanCacheHit(t *testing.T) {
	d := cacheTestDB(t, 1)
	defer d.Close()
	q := "select sum(a) from t where x < 5"
	res1, ex1, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex1.Technique == "interpreter-fallback" {
		t.Fatalf("shape not matched: %+v", ex1)
	}
	if ex1.PlanCached {
		t.Error("first execution reported PlanCached")
	}
	want := res1.Rows()[0][0]

	res2, ex2, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ex2.PlanCached {
		t.Error("second execution not served from plan cache")
	}
	if got := res2.Rows()[0][0]; got != want {
		t.Errorf("cached answer %d, want %d", got, want)
	}

	// A reformatted spelling normalizes onto the same plan.
	res3, ex3, err := d.QuerySwole("select  sum(a)\n\tfrom t   where x < 5")
	if err != nil {
		t.Fatal(err)
	}
	if !ex3.PlanCached {
		t.Error("whitespace-normalized spelling missed the cache")
	}
	if got := res3.Rows()[0][0]; got != want {
		t.Errorf("normalized-spelling answer %d, want %d", got, want)
	}
	// Both raw spellings are now aliased.
	if n := d.PlanCacheLen(); n != 2 {
		t.Errorf("plan cache holds %d raw keys, want 2", n)
	}
}

// TestPlanCacheInvalidation is the correctness core of the cache: after a
// table is replaced, cached plans and statistics must not serve stale
// answers, and the fresh answers must match the interpreted engine.
func TestPlanCacheInvalidation(t *testing.T) {
	d := cacheTestDB(t, 1)
	defer d.Close()
	scalarQ := "select sum(a) from t where x < 5"
	groupQ := "select c, sum(a) from t where x < 5 group by c"

	for _, q := range []string{scalarQ, groupQ, scalarQ, groupQ} {
		if _, _, err := d.QuerySwole(q); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.PlanCacheLen(); n != 2 {
		t.Fatalf("plan cache holds %d entries, want 2", n)
	}
	if d.engine.StatsCacheLen() == 0 {
		t.Fatal("stats cache empty after repeated planning")
	}

	// Replace t with data scaled 3x: every cached plan and statistic for
	// t must go.
	d2 := cacheTestDB(t, 3) // reference DB with the new data
	defer d2.Close()
	n := 4096
	a := make([]int64, n)
	x := make([]int64, n)
	c := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = 3 * int64(i%7)
		x[i] = int64(i % 10)
		c[i] = int64(i % 5)
	}
	if err := d.CreateTable("t", IntColumn("a", a), IntColumn("x", x), IntColumn("c", c)); err != nil {
		t.Fatal(err)
	}
	if got := d.PlanCacheLen(); got != 0 {
		t.Errorf("plan cache holds %d entries after table replacement, want 0", got)
	}
	if got := d.engine.StatsCacheLen(); got != 0 {
		t.Errorf("stats cache holds %d entries after table replacement, want 0", got)
	}

	// Scalar: answer must match the interpreted engine on the new data.
	wantRes, err := d2.Query(scalarQ)
	if err != nil {
		t.Fatal(err)
	}
	got, ex, err := d.QuerySwole(scalarQ)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanCached {
		t.Error("post-mutation execution claims a plan cache hit")
	}
	if g, w := got.Rows()[0][0], wantRes.Rows()[0][0]; g != w {
		t.Errorf("post-mutation scalar answer %d, want %d (stale cache?)", g, w)
	}

	// Group-by: compare as maps against the interpreted engine.
	wantG, err := d2.Query(groupQ)
	if err != nil {
		t.Fatal(err)
	}
	gotG, _, err := d.QuerySwole(groupQ)
	if err != nil {
		t.Fatal(err)
	}
	wm, gm := rowsAsMap(t, wantG), rowsAsMap(t, gotG)
	if len(wm) != len(gm) {
		t.Fatalf("group counts differ: got %d, want %d", len(gm), len(wm))
	}
	for k, w := range wm {
		if gm[k] != w {
			t.Errorf("group %d: got %d, want %d", k, gm[k], w)
		}
	}
}

// TestInvalidationGranularity checks eviction is per-table: creating or
// replacing one table must not evict cached plans that read only other
// tables.
func TestInvalidationGranularity(t *testing.T) {
	d := cacheTestDB(t, 1) // table "t"
	defer d.Close()
	q := "select sum(a) from t where x < 5"
	res1, _, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	want := res1.Rows()[0][0]
	if d.PlanCacheLen() != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", d.PlanCacheLen())
	}

	// Creating an unrelated table must not touch t's plan.
	vals := make([]int64, 128)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := d.CreateTable("u", IntColumn("v", vals)); err != nil {
		t.Fatal(err)
	}
	if d.PlanCacheLen() != 1 {
		t.Errorf("creating unrelated table evicted t's plan (cache len %d, want 1)", d.PlanCacheLen())
	}
	res2, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.PlanCached {
		t.Error("t's plan missed the cache after unrelated CreateTable")
	}
	if got := res2.Rows()[0][0]; got != want {
		t.Errorf("answer changed after unrelated CreateTable: got %d, want %d", got, want)
	}

	// Cache a plan on u too, then replace u: only u's plan goes.
	if _, _, err := d.QuerySwole("select sum(v) from u where v < 100"); err != nil {
		t.Fatal(err)
	}
	if d.PlanCacheLen() != 2 {
		t.Fatalf("plan cache holds %d entries, want 2", d.PlanCacheLen())
	}
	if err := d.CreateTable("u", IntColumn("v", vals[:64])); err != nil {
		t.Fatal(err)
	}
	if d.PlanCacheLen() != 1 {
		t.Errorf("replacing u left cache len %d, want 1 (t's plan only)", d.PlanCacheLen())
	}
	if _, ex, err = d.QuerySwole(q); err != nil {
		t.Fatal(err)
	} else if !ex.PlanCached {
		t.Error("t's plan evicted by u's replacement")
	}

	// Replacing rows is a data change in one table: exactly that table's
	// plans go (and its statistics with them); the other table's plan stays
	// warm. Rows 2048..4095 become one row that passes the filter.
	if _, _, err := d.QuerySwole("select sum(v) from u where v < 100"); err != nil {
		t.Fatal(err)
	}
	if d.PlanCacheLen() != 2 {
		t.Fatalf("plan cache holds %d entries, want 2", d.PlanCacheLen())
	}
	if err := d.ReplaceRows("t", 2048, 4096, IntColumn("a", []int64{11}), IntColumn("x", []int64{0}), IntColumn("c", []int64{0})); err != nil {
		t.Fatal(err)
	}
	if d.PlanCacheLen() != 1 {
		t.Errorf("ReplaceRows on t left cache len %d, want 1 (u's plan only)", d.PlanCacheLen())
	}
	if _, ex, err = d.QuerySwole("select sum(v) from u where v < 100"); err != nil {
		t.Fatal(err)
	} else if !ex.PlanCached {
		t.Error("u's plan evicted by t's ReplaceRows")
	}
	res3, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanCached {
		t.Error("t's stale plan served after ReplaceRows")
	}
	ref, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want = ref.Rows()[0][0]; res3.Rows()[0][0] != want {
		t.Errorf("post-ReplaceRows answer = %d, interpreter says %d", res3.Rows()[0][0], want)
	}

	// Appending is a data change in one table: exactly that table's plans go
	// stale — they stay in the cache and re-prepare on their next run — and,
	// unlike CreateTable, the table's cached statistics are *merged* with the
	// delta rather than dropped. Other tables' plans and statistics survive
	// untouched.
	statsBefore := d.engine.StatsCacheLen()
	if statsBefore == 0 {
		t.Fatal("no stats cached before append (test is vacuous)")
	}
	uStats := "select sum(v) from u where v < 100"
	if err := d.AppendRows("t", [][]int64{{7, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := d.engine.StatsCacheLen(); got != statsBefore {
		t.Errorf("append left %d stats entries, want %d (merged in place, not dropped)", got, statsBefore)
	}
	if d.PlanCacheLen() != 2 {
		t.Errorf("append to t left cache len %d, want 2 (t's stale entry stays)", d.PlanCacheLen())
	}
	if _, ex, err = d.QuerySwole(uStats); err != nil {
		t.Fatal(err)
	} else if !ex.PlanCached {
		t.Error("u's plan evicted by t's append")
	}
	res4, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanCached {
		t.Error("t's stale plan served after append")
	}
	if got, want := res4.Rows()[0][0], want+7; got != want {
		t.Errorf("post-append answer = %d, want %d", got, want)
	}
}

// TestSetWorkersClearsCache checks worker reconfiguration invalidates
// prepared plans (they bake in their worker count) and answers stay
// identical across counts.
func TestSetWorkersClearsCache(t *testing.T) {
	d := cacheTestDB(t, 1)
	defer d.Close()
	q := "select sum(a) from t where x < 5"
	res1, _, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	want := res1.Rows()[0][0]
	if d.PlanCacheLen() != 1 {
		t.Fatal("expected one cached plan")
	}
	d.SetWorkers(4)
	if d.PlanCacheLen() != 0 {
		t.Error("SetWorkers left stale plans cached")
	}
	res2, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanCached {
		t.Error("first post-SetWorkers execution claims a cache hit")
	}
	if got := res2.Rows()[0][0]; got != want {
		t.Errorf("answer changed across worker counts: got %d, want %d", got, want)
	}
}

// TestNormalizationKeepsLiterals pins the quote-awareness of the cache's
// whitespace normalization: two statements that differ only inside a
// quoted string literal are different statements and must not share a
// normalized cache entry, while whitespace outside literals still
// collapses onto one plan.
func TestNormalizationKeepsLiterals(t *testing.T) {
	d := NewDB()
	defer d.Close()
	if err := d.CreateTable("r",
		StringColumn("s", []string{"red apple", "red  apple", "red apple", "pear"}),
		IntColumn("v", []int64{1, 10, 100, 1000}),
	); err != nil {
		t.Fatal(err)
	}

	// One space vs two inside the literal: distinct predicates, distinct
	// answers. A normalization that collapsed whitespace inside literals
	// would alias them onto one cached plan and serve the wrong sum.
	one := "select sum(v) from r where s = 'red apple'"
	two := "select sum(v) from r where s = 'red  apple'"
	res1, _, err := d.QuerySwole(one)
	if err != nil {
		t.Fatal(err)
	}
	if got := res1.Rows()[0][0]; got != 101 {
		t.Fatalf("sum for 'red apple' = %d, want 101", got)
	}
	res2, ex2, err := d.QuerySwole(two)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.PlanCached {
		t.Error("statement differing only inside a quoted literal hit the other statement's plan")
	}
	if got := res2.Rows()[0][0]; got != 10 {
		t.Fatalf("sum for 'red  apple' = %d, want 10", got)
	}

	// Whitespace outside literals still normalizes onto the cached plan,
	// and the literal's interior survives the round trip.
	res3, ex3, err := d.QuerySwole("select  sum(v)\n\tfrom r where s = 'red  apple'")
	if err != nil {
		t.Fatal(err)
	}
	if !ex3.PlanCached {
		t.Error("reformatted spelling (whitespace outside the literal) missed the cache")
	}
	if got := res3.Rows()[0][0]; got != 10 {
		t.Fatalf("reformatted spelling sum = %d, want 10", got)
	}

	// Whitespace is what the lexer skips and nothing more: a vertical tab is
	// not whitespace, so the text fails cold and, once the single-spaced
	// spelling is cached, warm too — it must not normalize onto that plan.
	vt := "select sum(v) from r\vwhere v < 100"
	for _, when := range []string{"cold", "warm"} {
		if _, _, err := d.QuerySwole(vt); err == nil {
			t.Errorf("%s: %q answered, want the lexer's error", when, vt)
		}
		if _, _, err := d.QuerySwole("select sum(v) from r where v < 100"); err != nil {
			t.Fatal(err)
		}
	}

	// The doubled-quote escape stays inside the literal: a '' is a quote
	// character, not a close-and-reopen that would expose the interior.
	if got := normalizeQuery("select sum(v) from r where s = 'it''s  a  test'"); got != "select sum(v) from r where s = 'it''s  a  test'" {
		t.Errorf("escaped-quote literal was rewritten: %q", got)
	}
}

// TestFallbackNotCached checks statements outside the synthesizer's
// grammar (here: a non-aggregate projection) still fall back to the
// interpreter and are not inserted into the plan cache.
func TestFallbackNotCached(t *testing.T) {
	d := cacheTestDB(t, 1)
	defer d.Close()
	q := "select a, x from t where c < 3"
	_, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Technique != "interpreter-fallback" {
		t.Fatalf("expected fallback, got %s", ex.Technique)
	}
	if d.PlanCacheLen() != 0 {
		t.Errorf("fallback statement was cached")
	}
}

// TestClassicGroupKeyHeader pins the single header source: a classic
// GROUP BY, answered with its table's own (key, sum) pairs, keeps the key
// column's dictionary and logical type, so the compiled path renders exactly what
// the interpreter renders.
func TestClassicGroupKeyHeader(t *testing.T) {
	db := NewDB()
	err := db.CreateTable("t",
		StringColumn("flag", []string{"A", "B", "A", "B", "A"}),
		DateColumn("day", []string{"1994-01-01", "1994-01-01", "1995-06-01", "1995-06-01", "1995-06-01"}),
		DateColumn("t_fk", []string{"1970-01-01", "1970-01-02", "1970-01-01", "1970-01-03", "1970-01-02"}),
		DecimalColumn("price", []int64{100, 200, 300, 400, 100}),
	)
	if err != nil {
		t.Fatal(err)
	}
	// The parent's key is a date column whose day numbers are the dense row
	// ids, so the groupjoin key carries a logical type too.
	err = db.CreateTable("p",
		DateColumn("p_pk", []string{"1970-01-01", "1970-01-02", "1970-01-03"}),
		IntColumn("p_x", []int64{1, 2, 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddForeignKey("t", "t_fk", "p", "p_pk"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ q, shape string }{
		{"select flag, sum(price) from t group by flag", "scan+groupagg"},
		{"select day, sum(price) from t group by day", "scan+groupagg"},
		{"select t_fk, sum(price) from t, p where t_fk = p_pk and p_x < 3 group by t_fk", "scan+join:1+groupagg"},
	} {
		want, err := db.Query(c.q)
		if err != nil {
			t.Fatal(err)
		}
		got, ex, err := db.QuerySwole(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Shape != c.shape {
			t.Errorf("%s: shape %q, want %q", c.q, ex.Shape, c.shape)
		}
		if got.String() != want.String() {
			t.Errorf("%s:\nQuerySwole renders\n%sQuery renders\n%s", c.q, got.String(), want.String())
		}
	}
}

// TestPlanCacheAliasBound pins the cache bound on the raw-text alias path:
// a client that varies only whitespace reaches one prepared plan through
// ever-new spellings, and those aliases must not grow the map past
// maxCachedPlans.
func TestPlanCacheAliasBound(t *testing.T) {
	db := demoDB(t)
	q := "select sum(r_a) from r where r_x < 50"
	want, _, err := db.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	sum := want.Rows()[0][0]
	for i := 0; i < 3*maxCachedPlans; i++ {
		res, ex, err := db.QuerySwole(q + strings.Repeat(" ", i+1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows()[0][0] != sum {
			t.Fatalf("spelling %d: %d, want %d", i, res.Rows()[0][0], sum)
		}
		if n := db.PlanCacheLen(); n > maxCachedPlans {
			t.Fatalf("spelling %d: %d cached keys, bound %d", i, n, maxCachedPlans)
		}
		// Dropping aliases must not cost the plan itself.
		if i > 0 && !ex.PlanCached {
			t.Fatalf("spelling %d recompiled", i)
		}
	}
}

// TestGenericResultAliasesPlanBuffer pins the generic path's hand-off: a
// cached generic statement's result rows are headers into the plan-owned
// flat buffer — nothing is copied — so the entry's result and the plan's
// buffer are overwritten together by the statement's next run, QueryContext
// still hands out a detached copy, and after an append the re-prepared
// statement's first run overwrites the answer an earlier QuerySwole returned.
func TestGenericResultAliasesPlanBuffer(t *testing.T) {
	d := cacheTestDB(t, 1)
	defer d.Close()
	q := "select c, sum(a) as s, count(*) as n from t where x < 7 group by c having count(*) > 0"
	res1, _, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	own1 := *res1
	own1.flat = append([]int64(nil), res1.flat...)
	first := own1.Rows()
	d.mu.RLock()
	entry := d.plans[q]
	d.mu.RUnlock()
	plan := entry.plan

	// Same plan, next run: same backing array, same row headers.
	res2, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.PlanCached || &res2.Rows()[0][0] != &res1.Rows()[0][0] {
		t.Error("warm rerun did not reuse the entry's row headers")
	}
	own, _, err := plan.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if &own.Flat[0] != &res2.Rows()[0][0] {
		t.Error("result rows do not alias the plan's flat buffer")
	}
	// Scribbling on the plan's buffer shows through the entry's result (they
	// are one array), not through a QueryContext copy; the next run rewrites
	// both.
	copied, _, err := d.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	own.Flat[1] = -12345
	if res2.Rows()[0][1] != -12345 {
		t.Error("entry result is detached from the plan buffer")
	}
	if copied.Rows()[0][1] == -12345 {
		t.Error("QueryContext copy aliases the plan buffer")
	}
	if res3, _, err := d.QuerySwole(q); err != nil || !rowsEqual(res3.Rows(), first) {
		t.Errorf("rerun did not overwrite the scribbled buffer: %v (err %v)", res3.Rows(), err)
	}

	// An append makes the plan stale: the re-prepared statement sees the new
	// rows, and — as QuerySwole documents — its first run overwrites the
	// answer an earlier call returned: the new rows land in the array res2
	// reads.
	if err := d.AppendRows("t", [][]int64{{1000, 0, 2}, {2000, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	want, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	res4, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanCached {
		t.Error("the stale generic plan was replayed after the append")
	}
	if !rowsEqual(sortedRows(res4.Rows()), sortedRows(want.Rows())) || rowsEqual(res4.Rows(), first) {
		t.Errorf("after append: %v, want %v", res4.Rows(), want.Rows())
	}
	if &res2.Rows()[0][0] != &res4.Rows()[0][0] || !rowsEqual(res2.Rows(), res4.Rows()) {
		t.Errorf("res2 reads %v, want the re-prepared run's %v in the same array", res2.Rows(), res4.Rows())
	}
}

// TestQueryRows pins the one hand-out path: the caller's function sees the
// column names and the plan's flat buffer in place — the same array on every
// warm run, equal to QueryContext's private copy — for a classic statement, a
// generic one and an interpreter fallback; a failing statement never calls
// it; a warm call allocates nothing; and a panic inside it leaves the entry
// unlocked, so the statement's next execution answers.
func TestQueryRows(t *testing.T) {
	d := cacheTestDB(t, 1)
	defer d.Close()
	ctx := context.Background()
	for _, q := range []string{
		"select c, sum(a) as s from t where x < 7 group by c",
		"select c, sum(a) as s, count(*) as n from t where x < 7 group by c having count(*) > 0",
		"select x, a from t where x = 3 and a = 2 order by a",
	} {
		want, wex, err := d.QueryContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		var addr [2]*int64
		for run := range addr {
			ex, err := d.QueryRows(ctx, q, func(cols []string, flat []int64, width int) {
				if fmt.Sprint(cols) != fmt.Sprint(want.Columns()) || width != len(cols) {
					t.Errorf("%s: columns %v width %d, want %v", q, cols, width, want.Columns())
				}
				var rows [][]int64
				for i := 0; i+width <= len(flat); i += width {
					rows = append(rows, flat[i:i+width])
				}
				if !rowsEqual(rows, want.Rows()) {
					t.Errorf("%s: rows %v, want %v", q, rows, want.Rows())
				}
				addr[run] = &flat[0]
			})
			if err != nil || ex.Shape != wex.Shape {
				t.Fatalf("%s: shape %q err %v, want shape %q", q, ex.Shape, err, wex.Shape)
			}
		}
		if fallback := wex.Shape == "interpreter-fallback"; !fallback && addr[0] != addr[1] {
			t.Errorf("%s: warm runs handed out different arrays: the answer was copied", q)
		}
	}

	if _, err := d.QueryRows(ctx, "select nope from t", func([]string, []int64, int) {
		t.Error("row function called for a failing statement")
	}); err == nil {
		t.Error("unknown column compiled")
	}

	q := "select c, sum(a) as s from t where x < 7 group by c"
	fn := func([]string, []int64, int) {}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.QueryRows(ctx, q, fn); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm QueryRows: %.1f allocations, want 0", allocs)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the row function's panic did not reach the caller")
			}
		}()
		_, _ = d.QueryRows(ctx, q, func([]string, []int64, int) { panic("caller fault") })
	}()
	d.mu.RLock()
	entry := d.plans[q]
	d.mu.RUnlock()
	if !entry.mu.TryLock() {
		t.Fatal("the panic left the entry locked")
	}
	entry.mu.Unlock()
	want, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, ex, err := d.QuerySwole(q); err != nil || !ex.PlanCached || !rowsEqual(sortedRows(got.Rows()), sortedRows(want.Rows())) {
		t.Errorf("after the panic: %v (cached %v, err %v), want %v", got.Rows(), ex.PlanCached, err, want.Rows())
	}
}
