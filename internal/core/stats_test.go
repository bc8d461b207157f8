package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
)

// appendRows registers a replacement r table with deltaN extra rows whose
// r_x is always 0 (so any "r_x < k" predicate is fully selective on the
// delta) and whose r_c cycles through newGroups previously unseen codes.
func appendRows(t *testing.T, db *storage.Database, deltaN, newGroups int) {
	t.Helper()
	r := db.MustTable("r")
	delta := make(map[string][]int64, len(r.Columns))
	for i := 0; i < deltaN; i++ {
		delta["r_x"] = append(delta["r_x"], 0)
		delta["r_a"] = append(delta["r_a"], 1)
		delta["r_c"] = append(delta["r_c"], int64(1000+i%newGroups))
		delta["r_fk"] = append(delta["r_fk"], 0)
	}
	cols := make([]*storage.Column, len(r.Columns))
	for i, c := range r.Columns {
		cols[i] = c.Append(delta[c.Name])
	}
	db.AddTable(storage.MustNewTable("r", cols...))
}

func TestMergeStatsOnAppend(t *testing.T) {
	db := testDB(t, 10_000, 100, 8)
	e := NewEngine(db)
	r := db.MustTable("r")
	oldRows := r.Rows()

	filter := lt("r_x", 50)
	if err := expr.Bind(filter, expr.Columns(r)); err != nil {
		t.Fatal(err)
	}
	sel0, cached := e.selectivity(r, filter)
	if cached {
		t.Fatal("first sample reported cached")
	}
	key := expr.NewCol("r_c")
	if err := expr.Bind(key, expr.Columns(r)); err != nil {
		t.Fatal(err)
	}
	g0, _ := e.groupCount(r, key)
	if g0 != 8 {
		t.Fatalf("initial group count = %d, want 8", g0)
	}
	// An entry on another table must survive the merge untouched.
	s := db.MustTable("s")
	sFilter := lt("s_x", 10)
	if err := expr.Bind(sFilter, expr.Columns(s)); err != nil {
		t.Fatal(err)
	}
	e.selectivity(s, sFilter)
	lenBefore := e.StatsCacheLen()

	const deltaN = 5000
	appendRows(t, db, deltaN, 4)
	e.MergeStatsOnAppend(r, db.MustTable("r"))

	if got := e.StatsCacheLen(); got != lenBefore {
		t.Fatalf("stats entries = %d after merge, want %d (updated in place, not dropped)", got, lenBefore)
	}

	// Selectivity must be the row-count-weighted merge: the delta is 100%
	// selective for r_x < 50.
	r = db.MustTable("r")
	sel1, hit := e.selectivity(r, filter)
	if !hit {
		t.Fatal("merged selectivity entry missed: merge dropped it")
	}
	want := (sel0*float64(oldRows) + 1.0*deltaN) / float64(oldRows+deltaN)
	if math.Abs(sel1-want) > 1e-9 {
		t.Fatalf("merged selectivity = %v, want %v", sel1, want)
	}

	// Group count must have absorbed the delta's 4 new keys.
	g1, hit := e.groupCount(r, key)
	if !hit {
		t.Fatal("merged group entry missed: merge dropped it")
	}
	if g1 != 12 {
		t.Fatalf("merged group count = %d, want 12", g1)
	}

	// The other table's entry is still served from cache.
	if _, hit := e.selectivity(s, sFilter); !hit {
		t.Fatal("unrelated table's stats entry was dropped")
	}
}

func TestMergeStatsOnAppendStaleVersion(t *testing.T) {
	db := testDB(t, 2_000, 10, 4)
	e := NewEngine(db)
	r := db.MustTable("r")
	filter := lt("r_x", 50)
	if err := expr.Bind(filter, expr.Columns(r)); err != nil {
		t.Fatal(err)
	}
	e.selectivity(r, filter)

	// Two registrations between sample and merge: the entry is of a table
	// object older than the merge's, so it must be dropped, not merged.
	appendRows(t, db, 100, 1)
	stale := db.MustTable("r")
	appendRows(t, db, 100, 1)
	e.MergeStatsOnAppend(stale, db.MustTable("r"))
	if got := e.StatsCacheLen(); got != 0 {
		t.Fatalf("stats entries = %d, want 0 (older objects' entries dropped)", got)
	}
}

// TestReplacedTableKeepsItsStats: a compile that overlaps a write samples
// the table object it pinned, which the catalog may already have replaced.
// Its statistics belong to that object alone: the replacement's compile
// draws its own sample instead of being served the replaced table's numbers.
func TestReplacedTableKeepsItsStats(t *testing.T) {
	db := testDB(t, 2_000, 10, 4)
	e := NewEngine(db)
	old := db.MustTable("r")
	// The replacement's r_x is never below 50 and its r_c holds one key.
	cols := make([]*storage.Column, len(old.Columns))
	for i, c := range old.Columns {
		vals := make([]int64, old.Rows())
		if c.Name == "r_x" {
			for j := range vals {
				vals[j] = 99
			}
		}
		cols[i] = storage.Compress(c.Name, vals, c.Log)
	}
	db.AddTable(storage.MustNewTable("r", cols...))
	repl := db.MustTable("r")

	bound := func(x expr.Expr, tab *storage.Table) expr.Expr {
		if err := expr.Bind(x, expr.Columns(tab)); err != nil {
			t.Fatal(err)
		}
		return x
	}
	if sel, _ := e.selectivity(old, bound(lt("r_x", 50), old)); sel <= 0 {
		t.Fatalf("replaced table's selectivity %v, want > 0", sel)
	}
	if g, _ := e.groupCount(old, bound(expr.NewCol("r_c"), old)); g != 4 {
		t.Fatalf("replaced table's group count %d, want 4", g)
	}
	if sel, hit := e.selectivity(repl, bound(lt("r_x", 50), repl)); hit || sel != 0 {
		t.Errorf("replacement's selectivity %v (cached=%v), want a fresh 0", sel, hit)
	}
	if g, hit := e.groupCount(repl, bound(expr.NewCol("r_c"), repl)); hit || g != 1 {
		t.Errorf("replacement's group count %d (cached=%v), want a fresh 1", g, hit)
	}
}

// samplerDB builds table t of the given length with a column of every
// physical width, a dictionary column and a date column.
func samplerDB(rows int) *storage.Database {
	next := rand.New(rand.NewSource(7)).Int63n
	words := []string{"air", "mail", "rail", "reg air", "ship", "truck", "fob", "barge"}
	i8, i16, i32, i64 := make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows)
	date, strs := make([]int64, rows), make([]string, rows)
	for i := 0; i < rows; i++ {
		i8[i], i16[i], i32[i] = next(100), next(2000)-1000, next(100_000)
		i64[i], date[i], strs[i] = next(1<<40)-(1<<39), 9000+next(400), words[next(int64(len(words)))]
	}
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("t",
		storage.Compress("i8", i8, storage.LogInt),
		storage.Compress("i16", i16, storage.LogInt),
		storage.Compress("i32", i32, storage.LogInt),
		storage.NewInt64("i64", i64, storage.LogInt),
		storage.Compress("d", date, storage.LogDate),
		storage.NewStrings("s", strs),
	))
	return db
}

// predGen draws predicate trees from the parity fuzzer's grammar
// (parity_fuzz_test.go): OR of two or three terms, AND, NOT to depth three
// over comparison, BETWEEN, IN and column-plus-column leaves.
type predGen struct{ r *rand.Rand }

var predCols = []struct {
	name string
	lo   int64
	card int64
}{{"i8", 0, 100}, {"i16", -1000, 2000}, {"i32", 0, 100_000}, {"i64", -(1 << 39), 1 << 40}, {"d", 9000, 400}}

func (g predGen) lit(lo, card int64) *expr.Const { return &expr.Const{Val: lo + g.r.Int63n(card)} }

func (g predGen) pred(depth int) expr.Expr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		return g.leaf()
	}
	switch g.r.Intn(3) {
	case 0:
		or := &expr.Logic{Op: expr.Or}
		for n := 2 + g.r.Intn(2); n > 0; n-- {
			or.Args = append(or.Args, g.pred(depth-1))
		}
		return or
	case 1:
		return &expr.Logic{Op: expr.And, Args: []expr.Expr{g.pred(depth - 1), g.pred(depth - 1)}}
	}
	return &expr.Logic{Op: expr.Not, Args: []expr.Expr{g.pred(depth - 1)}}
}

func (g predGen) leaf() expr.Expr {
	c := predCols[g.r.Intn(len(predCols))]
	switch g.r.Intn(4) {
	case 0:
		return &expr.Cmp{Op: expr.CmpOp(g.r.Intn(6)), L: expr.NewCol(c.name), R: g.lit(c.lo, c.card)}
	case 1:
		lo := g.lit(c.lo, c.card)
		return &expr.Between{X: expr.NewCol(c.name), Lo: lo, Hi: &expr.Const{Val: lo.Val + g.r.Int63n(c.card)}}
	case 2:
		in := &expr.In{X: expr.NewCol(c.name)}
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			in.List = append(in.List, g.lit(c.lo, c.card))
		}
		return in
	}
	c2 := predCols[g.r.Intn(len(predCols))]
	sum := &expr.Arith{Op: expr.Add, L: expr.NewCol(c.name), R: expr.NewCol(c2.name)}
	return &expr.Cmp{Op: expr.LT, L: sum, R: g.lit(c.lo+c2.lo, c.card+c2.card)}
}

// sampleSelectivity is the row-at-a-time reference the vectorized sampler is
// pinned to: the bound predicate's selectivity over rows 0, step, 2·step, …
// through the scalar walker.
func sampleSelectivity(filter expr.Expr, rows int) float64 {
	n, hits := 0, 0
	for i := 0; i < rows; i += sampleStep(rows) {
		n++
		if expr.Eval(filter, i, nil) != 0 {
			hits++
		}
	}
	return float64(hits) / float64(max(n, 1))
}

// TestVectorSamplerMatchesRowSampler pins "no estimate moved": for every
// filter the vectorized sampler's selectivity equals the row-at-a-time
// sampler's bit for bit, at table lengths on both sides of every stride, and the group-count
// sampler folds exactly the keys of the sampled rows.
func TestVectorSamplerMatchesRowSampler(t *testing.T) {
	col, num, str := expr.NewCol, func(v int64) expr.Expr { return &expr.Const{Val: v} }, func(s string) expr.Expr { return &expr.StrConst{Val: s} }
	cmp := func(op expr.CmpOp, l, r expr.Expr) expr.Expr { return &expr.Cmp{Op: op, L: l, R: r} }
	logic := func(op expr.LogicOp, args ...expr.Expr) expr.Expr { return &expr.Logic{Op: op, Args: args} }
	hand := func() []expr.Expr {
		return []expr.Expr{
			cmp(expr.EQ, col("s"), str("mail")),
			cmp(expr.NE, col("s"), str("truck")),
			cmp(expr.EQ, col("s"), str("no such mode")),
			cmp(expr.GE, str("rail"), col("s")),
			&expr.Like{X: col("s"), Pattern: "%air%"},
			&expr.Like{X: col("s"), Pattern: "_ail", Negate: true},
			&expr.In{X: col("s"), List: []expr.Expr{str("ship"), str("fob"), str("absent")}},
			&expr.In{X: col("i16"), List: []expr.Expr{num(-3), num(0), num(999)}},
			&expr.Between{X: col("d"), Lo: num(9100), Hi: num(9200)},
			&expr.Between{X: col("i64"), Lo: num(-1 << 30), Hi: num(1 << 38)},
			&expr.Between{X: col("i8"), Lo: col("i16"), Hi: num(80)},
			logic(expr.Not, &expr.Between{X: col("i32"), Lo: num(10), Hi: num(90_000)}),
			cmp(expr.LT, col("i8"), num(1000)),  // a literal past the column's width
			cmp(expr.GT, col("i16"), num(-1e6)), // always true
			cmp(expr.LT, col("i8"), col("i16")),
			cmp(expr.LE, col("i32"), col("i64")),
			cmp(expr.GT, &expr.Arith{Op: expr.Mul, L: col("i8"), R: col("i16")}, &expr.Arith{Op: expr.Sub, L: col("i32"), R: num(50_000)}),
			cmp(expr.LT, &expr.Arith{Op: expr.Div, L: col("i32"), R: num(7)}, num(5000)),
			cmp(expr.GT, &expr.Arith{Op: expr.Div, L: col("i32"), R: col("i8")}, num(900)), // i8 holds zeros
			&expr.In{X: col("i8"), List: []expr.Expr{col("i16"), &expr.Arith{Op: expr.Div, L: col("d"), R: num(100)}, num(7)}},
			cmp(expr.EQ, &expr.Case{
				Whens: []expr.CaseWhen{{Cond: cmp(expr.LT, col("i8"), num(30)), Then: num(1)}, {Cond: cmp(expr.LT, col("i8"), num(60)), Then: col("i16")}},
				Else:  num(2),
			}, num(1)),
			logic(expr.And, cmp(expr.LT, col("i8"), num(50)), logic(expr.Or, cmp(expr.EQ, col("s"), str("air")), cmp(expr.GT, col("i32"), num(70_000)))),
			logic(expr.Or,
				logic(expr.And, cmp(expr.LT, col("i8"), num(20)), cmp(expr.EQ, col("s"), str("ship"))),
				logic(expr.Not, cmp(expr.GE, col("i16"), num(-900))),
				&expr.Like{X: col("s"), Pattern: "r%"},
			),
			logic(expr.Or, cmp(expr.LT, col("i8"), num(0)), cmp(expr.GT, col("i8"), num(1000))), // nothing qualifies
			col("i8"), // a bare integer as a predicate
		}
	}
	keys := func() []expr.Expr {
		return []expr.Expr{col("s"), col("i8"), col("i32"), &expr.Arith{Op: expr.Add, L: col("i8"), R: col("d")}}
	}
	for _, rows := range []int{0, 1, statsMaxSample - 1, statsMaxSample, 2*statsMaxSample + 7, 5*statsMaxSample - 1} {
		db := samplerDB(rows)
		tab := db.MustTable("t")
		e := NewEngine(db)
		filters := hand()
		g := predGen{rand.New(rand.NewSource(int64(rows) + 1))}
		random := 150
		if testing.Short() {
			random = 30 // the row-at-a-time oracle is slow under the race detector
		}
		for i := 0; i < random; i++ {
			p := g.pred(3)
			filters = append(filters, p, expr.NNF(expr.Clone(p)))
		}
		for _, f := range filters {
			if err := expr.Bind(f, expr.Columns(tab)); err != nil {
				t.Fatalf("rows=%d: %s: %v", rows, f, err)
			}
			got, _ := e.selectivity(tab, f)
			if want := sampleSelectivity(f, rows); got != want {
				t.Errorf("rows=%d: %s: vectorized %v, row-at-a-time %v", rows, f, got, want)
			}
		}
		for _, k := range keys() {
			if err := expr.Bind(k, expr.Columns(tab)); err != nil {
				t.Fatal(err)
			}
			seen, n := map[int64]struct{}{}, 0
			for i := 0; i < rows; i += sampleStep(rows) {
				seen[expr.Eval(k, i, nil)] = struct{}{}
				n++
			}
			want := 1
			if rows > 0 {
				want = estimateGroups(len(seen), n, rows)
			}
			if got, _ := e.groupCount(tab, k); got != want {
				t.Errorf("rows=%d: group count of %s: vectorized %d, row-at-a-time %d", rows, k, got, want)
			}
		}
		if rows >= 2*statsMaxSample && e.SampledColumns("t") != len(tab.Columns) {
			t.Errorf("rows=%d: %d column samples, want one per column (%d)", rows, e.SampledColumns("t"), len(tab.Columns))
		}
	}
}

// TestDividingFilterSamplesVectorized: division is total, so a filter that
// divides by a column — guarded by a short-circuit or not — is estimated like
// any other, on the sampled columns a tile at a time, equals the row-at-a-time
// reference bit for bit, and merges on append the same way.
func TestDividingFilterSamplesVectorized(t *testing.T) {
	db := samplerDB(3 * statsMaxSample)
	tab := db.MustTable("t")
	e := NewEngine(db)
	quotient := func() expr.Expr {
		return &expr.Cmp{Op: expr.GT, L: &expr.Arith{Op: expr.Div, L: &expr.Const{Val: 100}, R: expr.NewCol("i8")}, R: &expr.Const{Val: 3}}
	}
	guarded := &expr.Logic{Op: expr.And, Args: []expr.Expr{&expr.Cmp{Op: expr.NE, L: expr.NewCol("i8"), R: &expr.Const{Val: 0}}, quotient()}}
	f := &expr.Logic{Op: expr.Or, Args: []expr.Expr{guarded, lt("i16", -990)}}
	bare := &expr.Logic{Op: expr.Or, Args: []expr.Expr{quotient(), lt("i16", -990)}}
	for _, x := range []expr.Expr{f, bare} {
		if err := expr.Bind(x, expr.Columns(tab)); err != nil {
			t.Fatal(err)
		}
	}
	got, hit := e.selectivity(tab, f)
	if want := sampleSelectivity(f, tab.Rows()); hit || got != want || got <= 0 || got >= 1 {
		t.Fatalf("selectivity %v (cached=%v), row-at-a-time %v", got, hit, want)
	}
	if unguarded, _ := e.selectivity(tab, bare); unguarded != got {
		t.Errorf("the guard moved the estimate: %v without it, %v with", unguarded, got)
	}
	if n := e.SampledColumns("t"); n != 2 {
		t.Errorf("%d column samples drawn, want i8 and i16", n)
	}

	// The append path merges such an entry over a delta of zero divisors.
	oldRows := tab.Rows()
	cols := make([]*storage.Column, len(tab.Columns))
	for i, c := range tab.Columns {
		delta := make([]int64, 100)
		if c.Name == "i16" {
			for j := range delta {
				delta[j] = -1000
			}
		}
		cols[i] = c.Append(delta)
	}
	db.AddTable(storage.MustNewTable("t", cols...))
	e.MergeStatsOnAppend(tab, db.MustTable("t"))
	merged, hit := e.selectivity(db.MustTable("t"), f)
	if want := (got*float64(oldRows) + 100) / float64(oldRows+100); !hit || math.Abs(merged-want) > 1e-12 {
		t.Errorf("merged selectivity %v (cached=%v), want %v", merged, hit, want)
	}
}

// TestNeverSeenFiltersKeepRangeAndGroups: a stream of never-seen filters
// fills and resets the selectivity map many times over; the table's range
// and group-count entries, which cost a pass over a whole column to rebuild,
// must still be there.
func TestNeverSeenFiltersKeepRangeAndGroups(t *testing.T) {
	db := testDB(t, 5_000, 100, 2000)
	e := NewEngine(db)
	r := db.MustTable("r")
	key := expr.NewCol("r_c")
	if err := expr.Bind(key, expr.Columns(r)); err != nil {
		t.Fatal(err)
	}
	groups, _ := e.groupCount(r, key)
	lo, hi := e.colRange(r, r.Column("r_c"))
	for i := 0; i < 3000; i++ {
		f := &expr.Logic{Op: expr.Or, Args: []expr.Expr{lt("r_x", int64(i)), lt("r_a", int64(-i))}}
		if err := expr.Bind(f, expr.Columns(r)); err != nil {
			t.Fatal(err)
		}
		if _, hit := e.selectivity(r, f); hit {
			t.Fatalf("filter %d was seen before", i)
		}
	}
	if n := e.StatsCacheLen(); n > maxSelectivityEntries+2 {
		t.Errorf("%d entries cached, selectivities are bounded at %d", n, maxSelectivityEntries)
	}
	if got, hit := e.groupCount(r, key); !hit || got != groups {
		t.Errorf("group count %d (cached=%v) after 3000 filters, want the cached %d", got, hit, groups)
	}
	if ent, ok := rangeEntry(e, "r_c"); !ok || ent.lo != lo || ent.hi != hi {
		t.Errorf("range entry %v (present=%v) after 3000 filters, want [%d, %d]", ent, ok, lo, hi)
	}
}

// TestSelectivityMissAllocations: a miss on a warm sample allocates no more
// than the row-at-a-time sampler's miss did — the key's text and the cache's
// clone of the tree — and nothing for the evaluation, which runs on the
// engine's scratch.
func TestSelectivityMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := microTable(50_000)
	r := db.MustTable("r")
	e := NewEngine(db)
	for _, leaves := range []int{1, 3, 6} {
		filter, renew := neverSeen(leaves)
		if err := expr.Bind(filter, expr.Columns(r)); err != nil {
			t.Fatal(err)
		}
		i := leaves * 1000
		miss := testing.AllocsPerRun(200, func() {
			i++
			renew(i)
			if _, hit := e.selectivity(r, filter); hit {
				t.Fatal("statistics cache hit")
			}
		})
		parent := testing.AllocsPerRun(200, func() {
			_, _ = filter.String(), expr.Clone(filter)
		})
		if miss > parent {
			t.Errorf("%d leaves: %v allocations per miss; the key and the clone alone, as the row-at-a-time sampler made them, are %v", leaves, miss, parent)
		}
		t.Logf("%d leaves: %v allocations per miss (key and clone: %v)", leaves, miss, parent)
	}
}

// TestEstimateGroupsExact pins the group-count estimate: a saturated sample
// scales by the rows each sampled row stands for, computed without
// truncating rows/n — a saturated 16,384-row sample of 30,000 rows estimates
// all 30,000, not 16,384.
func TestEstimateGroupsExact(t *testing.T) {
	for _, tc := range []struct{ d, n, rows, want int }{
		{16384, 16384, 30000, 30000},
		{13000, 16384, 30000, 23803},
		{12288, 16384, 30000, 12288}, // exactly three quarters: not saturated
		{16000, 16384, 1_000_000, 976562},
		{100, 16384, 1_000_000, 100},
		{5, 5, 5, 5},
		{0, 0, 0, 0},
	} {
		if got := estimateGroups(tc.d, tc.n, tc.rows); got != tc.want {
			t.Errorf("estimateGroups(%d, %d, %d) = %d, want %d", tc.d, tc.n, tc.rows, got, tc.want)
		}
	}
}

// TestMergeStatsCarriesWideGroups: a group count whose distinct-sample is too
// wide to keep (mergeableKeyCap) survives an append — re-estimated from its
// distinct and sampled counts at the new row count — so the next lookup hits
// and nothing is sampled again.
func TestMergeStatsCarriesWideGroups(t *testing.T) {
	db := testDB(t, 40_000, 10, 1_000_000)
	e := NewEngine(db)
	r := db.MustTable("r")
	key := expr.NewCol("r_c")
	if err := expr.Bind(key, expr.Columns(r)); err != nil {
		t.Fatal(err)
	}
	g0, _ := e.groupCount(r, key)
	ent, _ := e.stats.get(statsKey{table: r, kind: statGroups, expr: key.String()})
	if ent.keys != nil || ent.d <= mergeableKeyCap || g0 != estimateGroups(ent.d, ent.n, r.Rows()) {
		t.Fatalf("entry keeps %d keys of %d distinct, groups %d: not a wide entry (test is vacuous)", len(ent.keys), ent.d, g0)
	}

	appendRows(t, db, 5000, 4)
	grown := db.MustTable("r")
	e.MergeStatsOnAppend(r, grown)
	if err := expr.Bind(key, expr.Columns(grown)); err != nil {
		t.Fatal(err)
	}
	g1, hit := e.groupCount(grown, key)
	if !hit {
		t.Fatal("wide group count dropped by the append")
	}
	if want := estimateGroups(ent.d, ent.n, grown.Rows()); g1 != want || g1 <= g0 {
		t.Errorf("merged group count = %d, want %d (from %d)", g1, want, g0)
	}
	if n := e.SampledColumns("r"); n != 0 {
		t.Errorf("%d columns sampled after the merge, want 0", n)
	}
}
