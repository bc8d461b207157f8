package swole

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Parity fuzzing for the plan synthesizer: random single-block SELECTs —
// up to three FK join edges (star and snowflake), OR/NOT predicate trees
// up to depth three, BETWEEN/IN (literal and column-valued items), quotients
// by columns and by literals, zero included, in predicates and aggregate
// arguments, one or two aggregates across all five functions, multi-key
// GROUP BY — the root's foreign key among the keys, the groupjoin shape —
// HAVING — are pinned against the interpreted volcano engine on both entry
// points, cold and warm, at one worker and at 2, 4 or 7, part of the
// grouped ones under ORDER BY and LIMIT, row by row in order. No dimension's
// primary key is its row position: one is offset, one strided, one
// shuffled. Every generated statement must also compile through the
// synthesizer (no interpreter fallback): the corpus is the planner's
// coverage gate.

// fuzzSchema describes the generator's star/snowflake schema: fact f with
// foreign keys into d1 and d2, and d1 with a foreign key into d3.
type fuzzCol struct {
	name string
	card int64 // values are uniform in [0, card)
}

var fuzzValueCols = map[string][]fuzzCol{
	"f":  {{"f_k", 10}, {"f_a", 21}, {"f_b", 51}},
	"d1": {{"d1_v", 31}, {"d1_w", 8}},
	"d2": {{"d2_v", 31}},
	"d3": {{"d3_v", 31}},
}

func fuzzDB(t testing.TB, rows int) *DB {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	dim := rows / 4
	if dim < 8 {
		dim = 8
	}
	d := NewDB()
	mk := func(n int, card int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = r.Int63n(card)
		}
		return v
	}
	// Primary keys: d1's offset below zero, d2's strided, d3's a shuffle.
	keys := func(key func(i int) int64) []int64 {
		v := make([]int64, dim)
		for i := range v {
			v[i] = key(i)
		}
		return v
	}
	perm := r.Perm(dim)
	pk1 := keys(func(i int) int64 { return int64(i - dim/2) })
	pk2 := keys(func(i int) int64 { return 1000 + 3*int64(i) })
	pk3 := keys(func(i int) int64 { return int64(perm[i]) })
	refs := func(n int, pks []int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = pks[r.Intn(len(pks))]
		}
		return v
	}
	if err := d.CreateTable("d3",
		IntColumn("d3_pk", pk3), IntColumn("d3_v", mk(dim, 31))); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("d1",
		IntColumn("d1_pk", pk1), IntColumn("d1_v", mk(dim, 31)),
		IntColumn("d1_w", mk(dim, 8)), IntColumn("d1_fk3", refs(dim, pk3))); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("d2",
		IntColumn("d2_pk", pk2), IntColumn("d2_v", mk(dim, 31))); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("f",
		IntColumn("f_k", mk(rows, 10)), IntColumn("f_a", mk(rows, 21)),
		IntColumn("f_b", mk(rows, 51)), IntColumn("f_d1", refs(rows, pk1)),
		IntColumn("f_d2", refs(rows, pk2))); err != nil {
		t.Fatal(err)
	}
	for _, fk := range [][4]string{
		{"f", "f_d1", "d1", "d1_pk"},
		{"f", "f_d2", "d2", "d2_pk"},
		{"d1", "d1_fk3", "d3", "d3_pk"},
	} {
		if err := d.AddForeignKey(fk[0], fk[1], fk[2], fk[3]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// fuzzGen generates random single-block aggregate SELECTs over the fuzz
// schema. ord, when set, orders part of the grouped statements: one or two
// output columns, ascending or descending, some of them cut by a LIMIT. It
// is a stream of its own, so r's statements stay what they were.
type fuzzGen struct {
	r, ord *rand.Rand
}

// tablesAndJoins picks a join configuration: the FROM tables and the FK
// equalities that connect them.
func (g *fuzzGen) tablesAndJoins() (tables []string, joins []string) {
	switch g.r.Intn(6) {
	case 0:
		return []string{"f"}, nil
	case 1:
		return []string{"f", "d1"}, []string{"f_d1 = d1_pk"}
	case 2:
		return []string{"f", "d2"}, []string{"f_d2 = d2_pk"}
	case 3:
		return []string{"f", "d1", "d2"}, []string{"f_d1 = d1_pk", "f_d2 = d2_pk"}
	case 4: // snowflake: f -> d1 -> d3
		return []string{"f", "d1", "d3"}, []string{"f_d1 = d1_pk", "d1_fk3 = d3_pk"}
	default:
		return []string{"f", "d1", "d2", "d3"},
			[]string{"f_d1 = d1_pk", "f_d2 = d2_pk", "d1_fk3 = d3_pk"}
	}
}

// col picks a random value column of the in-scope tables.
func (g *fuzzGen) col(tables []string) fuzzCol {
	t := tables[g.r.Intn(len(tables))]
	cols := fuzzValueCols[t]
	return cols[g.r.Intn(len(cols))]
}

// pred builds a random predicate tree of the given depth budget.
func (g *fuzzGen) pred(tables []string, depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		return g.leaf(tables)
	}
	switch g.r.Intn(3) {
	case 0: // disjunction, 2-3 terms
		n := 2 + g.r.Intn(2)
		terms := make([]string, n)
		for i := range terms {
			terms[i] = g.pred(tables, depth-1)
		}
		return "(" + strings.Join(terms, " or ") + ")"
	case 1: // conjunction
		return "(" + g.pred(tables, depth-1) + " and " + g.pred(tables, depth-1) + ")"
	default:
		return "not " + g.pred(tables, depth-1)
	}
}

// leaf builds one directly evaluable comparison.
func (g *fuzzGen) leaf(tables []string) string {
	c := g.col(tables)
	switch g.r.Intn(6) {
	case 0:
		ops := []string{"<", "<=", ">", ">=", "=", "<>"}
		return fmt.Sprintf("%s %s %d", c.name, ops[g.r.Intn(len(ops))], g.r.Int63n(c.card))
	case 1:
		lo := g.r.Int63n(c.card)
		hi := lo + g.r.Int63n(c.card-lo)
		return fmt.Sprintf("%s between %d and %d", c.name, lo, hi)
	case 2:
		n := 1 + g.r.Intn(3)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprint(g.r.Int63n(c.card))
		}
		return fmt.Sprintf("%s in (%s)", c.name, strings.Join(vals, ", "))
	case 3: // IN items that are columns and arithmetic
		c2 := g.col(tables)
		return fmt.Sprintf("%s in (%s, %s + 1, %d)", c.name, c2.name, g.col(tables).name, g.r.Int63n(c.card))
	case 4: // a quotient: every column holds zeros, and so may the literal
		if g.r.Intn(2) == 0 {
			return fmt.Sprintf("%s / %s >= %d", c.name, g.col(tables).name, g.r.Int63n(4))
		}
		return fmt.Sprintf("%d / %s < %s / %d", 20+g.r.Int63n(40), c.name, g.col(tables).name, g.r.Int63n(3))
	default:
		c2 := g.col(tables)
		return fmt.Sprintf("%s + %s < %d", c.name, c2.name, g.r.Int63n(c.card+c2.card))
	}
}

// aggArg builds an aggregate argument expression.
func (g *fuzzGen) aggArg(tables []string) string {
	c := g.col(tables)
	switch g.r.Intn(5) {
	case 0:
		return c.name
	case 1:
		return fmt.Sprintf("%s * %d", c.name, 1+g.r.Int63n(3))
	case 2:
		return fmt.Sprintf("%s / %s", c.name, g.col(tables).name)
	case 3:
		return fmt.Sprintf("%s * 7 / %d", c.name, g.r.Int63n(3))
	default:
		return fmt.Sprintf("%s + %s", c.name, g.col(tables).name)
	}
}

// query builds one random statement.
func (g *fuzzGen) query() string {
	tables, joins := g.tablesAndJoins()

	// Group keys: 0-2 distinct value columns — or now and then the root's
	// foreign key into the first joined dimension alone, with a predicate of
	// that dimension's and aggregates over the root: the groupjoin.
	nKeys := g.r.Intn(3)
	keySet := map[string]bool{}
	var keys, conj []string
	aggTables := tables
	if nKeys > 0 && len(joins) > 0 && g.r.Intn(3) == 0 {
		fk := strings.Fields(joins[0])[0]
		keySet[fk], nKeys, aggTables = true, 1, tables[:1]
		keys = append(keys, fk)
		conj = append(conj, g.pred(tables[1:2], 1))
	}
	for len(keys) < nKeys {
		c := g.col(tables)
		if !keySet[c.name] {
			keySet[c.name] = true
			keys = append(keys, c.name)
		}
	}

	// Aggregates: 1-2, over all five functions.
	nAggs := 1 + g.r.Intn(2)
	var aggs []string
	for i := 0; i < nAggs; i++ {
		switch g.r.Intn(6) {
		case 0:
			aggs = append(aggs, fmt.Sprintf("count(*) as s%d", i))
		case 1:
			aggs = append(aggs, fmt.Sprintf("avg(%s) as s%d", g.col(aggTables).name, i))
		case 2:
			aggs = append(aggs, fmt.Sprintf("min(%s) as s%d", g.col(aggTables).name, i))
		case 3:
			aggs = append(aggs, fmt.Sprintf("max(%s) as s%d", g.col(aggTables).name, i))
		default:
			aggs = append(aggs, fmt.Sprintf("sum(%s) as s%d", g.aggArg(aggTables), i))
		}
	}

	// Select list: keys and aggregates, occasionally shuffled so the
	// generic projection stage (non-canonical output order) is exercised.
	items := append(append([]string(nil), keys...), aggs...)
	if g.r.Intn(3) == 0 {
		g.r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	}

	var sb strings.Builder
	sb.WriteString("select " + strings.Join(items, ", "))
	sb.WriteString(" from " + strings.Join(tables, ", "))

	conj = append(conj, joins...)
	for n := g.r.Intn(3); n > 0; n-- {
		conj = append(conj, g.pred(tables, 1+g.r.Intn(3)))
	}
	if len(conj) > 0 {
		sb.WriteString(" where " + strings.Join(conj, " and "))
	}
	if len(keys) > 0 {
		sb.WriteString(" group by " + strings.Join(keys, ", "))
		if g.r.Intn(2) == 0 {
			switch g.r.Intn(3) {
			case 0:
				sb.WriteString(fmt.Sprintf(" having count(*) > %d", g.r.Int63n(8)))
			case 1:
				sb.WriteString(fmt.Sprintf(" having sum(%s) > %d", g.col(tables).name, g.r.Int63n(100)))
			default:
				sb.WriteString(" having s0 > 0")
			}
		}
		if g.ord != nil && g.ord.Intn(3) == 0 {
			names := append([]string(nil), keys...)
			for i := range aggs {
				names = append(names, fmt.Sprintf("s%d", i))
			}
			g.ord.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
			names = names[:min(len(names), 1+g.ord.Intn(2))]
			for i := range names {
				names[i] += []string{"", " asc", " desc"}[g.ord.Intn(3)]
			}
			sb.WriteString(" order by " + strings.Join(names, ", "))
			if g.ord.Intn(2) == 0 {
				sb.WriteString(fmt.Sprintf(" limit %d", 1+g.ord.Intn(5)))
			}
		}
	}
	return sb.String()
}

// sortedRows canonicalizes a result's rows for order-insensitive
// comparison (the volcano engine emits groups in first-seen order, the
// synthesizer in ascending key order).
func sortedRows(rows [][]int64) [][]int64 {
	out := append([][]int64(nil), rows...)
	sort.Slice(out, func(a, b int) bool {
		ra, rb := out[a], out[b]
		for i := range ra {
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return false
	})
	return out
}

// answerOrder is q's answer as the comparison reads it: in its own order
// when q has an ORDER BY or LIMIT, which fixes the order on both engines,
// and as sortedRows otherwise.
func answerOrder(q string, rows [][]int64) [][]int64 {
	if strings.Contains(q, " order by ") || strings.Contains(q, " limit ") {
		return rows
	}
	return sortedRows(rows)
}

func rowsEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkParity runs one statement through a SWOLE entry point and pins it
// against the interpreted baseline (answerOrder).
func checkParity(t *testing.T, d *DB, q string, warm bool, via string, run func() (*Result, Explain, error)) {
	t.Helper()
	base, err := d.Query(q)
	if err != nil {
		t.Fatalf("volcano failed %q: %v", q, err)
	}
	res, ex, err := run()
	if err != nil {
		t.Fatalf("%s failed %q: %v", via, q, err)
	}
	if ex.Shape == "interpreter-fallback" {
		t.Fatalf("planner coverage hole: %q fell back to the interpreter", q)
	}
	if warm && !ex.PlanCached {
		t.Errorf("%s warm run of %q was not plan-cached (shape %s)", via, q, ex.Shape)
	}
	want, got := answerOrder(q, base.Rows()), answerOrder(q, res.Rows())
	if !rowsEqual(want, got) {
		t.Fatalf("%s mismatch for %q (shape %s):\nvolcano: %v\nswole:   %v", via, q, ex.Shape, want, got)
	}
	if bc, sc := base.Columns(), res.Columns(); !rowsEqualStr(bc, sc) {
		t.Fatalf("%s column mismatch for %q: volcano %v, swole %v", via, q, bc, sc)
	}
}

func rowsEqualStr(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSynthesizerParityFuzz is the parity matrix: every generated
// statement runs on both entry points, cold and warm, at one worker and
// several, against the interpreted baseline. Morsels are one tile, so the
// 2,000-row fact table is two of them and a gang has stripes to merge. It doubles as the planner
// coverage gate: any statement in the generated grammar that falls back
// to the interpreter fails the test.
func TestSynthesizerParityFuzz(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	d := fuzzDB(t, 2000)
	defer d.Close()
	smallMorsels(d)
	g := &fuzzGen{r: rand.New(rand.NewSource(42)), ord: rand.New(rand.NewSource(47))}
	draw := rand.New(rand.NewSource(43)) // its own stream: the statement corpus stays what it was
	ctx := context.Background()
	for i := 0; i < n; i++ {
		q := g.query()
		for _, workers := range []int{1, []int{2, 4, 7}[draw.Intn(3)]} {
			d.SetWorkers(workers) // also clears the plan cache: next run is cold
			tag := fmt.Sprintf("workers=%d", workers)
			checkParity(t, d, q, false, "QuerySwole cold "+tag, func() (*Result, Explain, error) { return d.QuerySwole(q) })
			checkParity(t, d, q, true, "QuerySwole warm "+tag, func() (*Result, Explain, error) { return d.QuerySwole(q) })
			checkParity(t, d, q, true, "QueryContext "+tag, func() (*Result, Explain, error) { return d.QueryContext(ctx, q) })
		}
	}
	// The second stream, on streams of its own: statements over wideFacts'
	// columns of every stored width.
	addWideFacts(t, d)
	wg, wdraw := &wideGen{r: rand.New(rand.NewSource(44))}, rand.New(rand.NewSource(45))
	for i := 0; i < n; i++ {
		q := wg.query()
		for _, workers := range []int{1, []int{2, 4, 7}[wdraw.Intn(3)]} {
			d.SetWorkers(workers)
			tag := fmt.Sprintf("wide workers=%d", workers)
			checkParity(t, d, q, false, "QuerySwole cold "+tag, func() (*Result, Explain, error) { return d.QuerySwole(q) })
			checkParity(t, d, q, true, "QuerySwole warm "+tag, func() (*Result, Explain, error) { return d.QuerySwole(q) })
		}
	}
	d.SetWorkers(0)
}

// addWideFacts adds the fact table g, 2,000 rows whose columns are stored at
// every width: keys g_k8 in [0, 6), g_k16 in [-300, 300) and g_k32 in
// [70000, 70041); arguments g_a8, g_a16, g_a32 and g_a64 drawn across their
// width's range (g_a64 beyond ±2^31); and the filter column g_f in [0, 100).
func addWideFacts(t testing.TB, d *DB) {
	t.Helper()
	r := rand.New(rand.NewSource(46))
	col := func(name string, lo, hi int64) Column {
		v := make([]int64, 2000)
		for i := range v {
			v[i] = lo + r.Int63n(hi-lo)
		}
		return IntColumn(name, v)
	}
	if err := d.CreateTable("g",
		col("g_k8", 0, 6), col("g_k16", -300, 300), col("g_k32", 70_000, 70_041),
		col("g_a8", -100, 101), col("g_a16", -30_000, 30_001), col("g_a32", -2_000_000_000, 2_000_000_001),
		col("g_a64", -1<<40, 1<<40), col("g_f", 0, 100)); err != nil {
		t.Fatal(err)
	}
}

// wideGen generates grouped and scalar aggregates over addWideFacts' table:
// 2-4 aggregates mixing sum, avg, min, max and count over arguments of
// different widths — a min and a max over one column now and then — grouped
// by 0-2 keys of different widths, under an optional filter.
type wideGen struct{ r *rand.Rand }

func (g *wideGen) query() string {
	args := []string{"g_a8", "g_a16", "g_a32", "g_a64"}
	keys := []string{"g_k8", "g_k16", "g_k32"}
	g.r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:g.r.Intn(3)]
	var aggs []string
	if g.r.Intn(4) == 0 {
		a := args[g.r.Intn(len(args))]
		aggs = append(aggs, "min("+a+")", "max("+a+")")
		g.r.Shuffle(2, func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	}
	for n := 2 + g.r.Intn(3); len(aggs) < n; {
		a := args[g.r.Intn(len(args))]
		switch g.r.Intn(8) {
		case 0:
			aggs = append(aggs, "count(*)")
		case 1:
			aggs = append(aggs, "avg("+a+")")
		case 2:
			aggs = append(aggs, "min("+a+")")
		case 3:
			aggs = append(aggs, "max("+a+")")
		default:
			aggs = append(aggs, "sum("+a+")")
		}
	}
	for i := range aggs {
		aggs[i] += fmt.Sprintf(" as s%d", i)
	}
	q := "select " + strings.Join(append(append([]string(nil), keys...), aggs...), ", ") + " from g"
	if f := g.r.Intn(120); f < 100 {
		q += fmt.Sprintf(" where g_f < %d", f)
	}
	if len(keys) > 0 {
		q += " group by " + strings.Join(keys, ", ")
	}
	return q
}

// TestSynthesizerAcceptance pins the issue's acceptance statement: a
// two-join, two-aggregate query with an OR predicate and a HAVING clause
// compiles through the synthesizer (no interpreter fallback), matches
// the interpreted engine, and replays from the plan cache.
func TestSynthesizerAcceptance(t *testing.T) {
	d := fuzzDB(t, 2000)
	defer d.Close()
	q := `select f_k, sum(f_a) as total, count(*) as n
	      from f, d1, d2
	      where f_d1 = d1_pk and f_d2 = d2_pk
	        and (f_b < 10 or f_a > 15 or f_k = 5)
	      group by f_k
	      having total > 0`
	base, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	res, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Shape == "interpreter-fallback" {
		t.Fatalf("acceptance query fell back to the interpreter")
	}
	if want := "scan+filter(or:3)+join:2+groupagg:2+having"; ex.Shape != want {
		t.Errorf("shape signature = %q, want %q", ex.Shape, want)
	}
	if ShapeBucket(ex.Shape) != "groupjoin-agg" {
		t.Errorf("bucket = %q, want groupjoin-agg", ShapeBucket(ex.Shape))
	}
	if !rowsEqual(sortedRows(base.Rows()), sortedRows(res.Rows())) {
		t.Fatalf("acceptance mismatch:\nvolcano: %v\nswole:   %v", base.Rows(), res.Rows())
	}
	if _, ex2, err := d.QuerySwole(q); err != nil || !ex2.PlanCached {
		t.Fatalf("warm replay not plan-cached (err %v, ex %+v)", err, ex2)
	}
}
