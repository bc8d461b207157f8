package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
)

// TestTableFormRule pins the form rule on both sides of each of its
// clauses: the record array against the hashed table it would replace,
// against L2, the ranges no key-addressed table can cover, and the packing
// bound rows × addBound < 2^31 on one lane.
func TestTableFormRule(t *testing.T) {
	p := cost.Default() // L2Bytes = 256 KB
	const int8Max, int16Max = 1 << 7, 1 << 15
	cases := []struct {
		name          string
		lo, hi        int64
		lanes, groups int
		rows          int
		bound         uint64
		want          int
		packed        bool
	}{
		{"dictionary codes", 0, 24, 1, 25, 0, 0, 25, false},
		{"every key a group", 0, 999_999, 1, 1_000_000, 0, 0, 1_000_000, false},
		{"negative origin", -50, 49, 1, 100, 0, 0, 100, false},
		{"few groups, range inside L2", 0, 9_999, 1, 10, 0, 0, 10_000, false},
		{"few groups, range past L2 and past the hashed table", 0, 99_999, 1, 10, 0, 0, 0, false},
		{"sparse: a million-wide range holding a thousand groups", 0, 999_999, 1, 1000, 0, 0, 0, false},
		{"five lanes widen the record", 0, 9_999, 5, 10, 0, 0, 0, false},
		{"range inside the hashed footprint", 0, 399_999, 1, 100_000, 0, 0, 400_000, false}, // 6.4 MB against 262144·29 B
		{"range past the hashed footprint", 0, 499_999, 1, 100_000, 0, 0, 0, false},
		{"all of int64", math.MinInt64, math.MaxInt64, 1, 1 << 20, 0, 0, 0, false},
		{"range holding NullKey", ht.NullKey, ht.NullKey + 10, 1, 11, 0, 0, 0, false},
		{"past int32 slots", 0, ht.MaxDenseDomain, 1, 1 << 40, 0, 0, 0, false},
		{"empty range", 1, 0, 1, 1, 0, 0, 0, false},

		{"int8 sum over 2^24-1 rows packs", 0, 999_999, 1, 1_000_000, 1<<24 - 1, int8Max, 1_000_000, true},
		{"int8 sum over 2^24 rows", 0, 999_999, 1, 1_000_000, 1 << 24, int8Max, 1_000_000, false},
		{"int16 sum over 65,535 rows packs", 0, 99, 1, 100, 65_535, int16Max, 100, true},
		{"int16 sum over 65,536 rows", 0, 99, 1, 100, 65_536, int16Max, 100, false},
		{"int32 sum over one row", 0, 99, 1, 100, 1, 1 << 31, 100, false},
		{"count(*) over 2^31-1 rows packs", 0, 99, 1, 100, 1<<31 - 1, 1, 100, true},
		{"count(*) over 2^31 rows", 0, 99, 1, 100, 1 << 31, 1, 100, false},
		{"no bound: an expression", 0, 99, 1, 100, 10, 0, 100, false},
		{"two lanes never pack", 0, 99, 2, 100, 10, int8Max, 100, false},
		{"packing brings the range inside the hashed footprint", 0, 499_999, 1, 100_000, 1000, int8Max, 500_000, true},
		{"a packed record on a hashed-only range", 0, 999_999, 1, 1000, 1000, int8Max, 0, false},
	}
	for _, c := range cases {
		form, bytes, d, packed := tableForm(p, c.lo, c.hi, c.lanes, c.groups, c.rows, c.bound)
		if d != c.want || packed != c.packed {
			t.Errorf("%s: domain %d packed %v, want %d and %v", c.name, d, packed, c.want, c.packed)
		}
		want, price := (c.want+1)*8*(c.lanes+1), p.KeyAddressed() // the domain's records and the throwaway's
		switch {
		case c.want == 0:
			want, price = c.groups*ht.HashedSlotBytes(c.lanes), p
		case c.packed:
			want = (c.want + 1) * 8
		}
		if bytes != want || form != price {
			t.Errorf("%s: %d bytes (want %d), key-addressed pricing = %v", c.name, bytes, want, form != p)
		}
	}
}

// TestAddBound: count(*) and bare narrow columns bound a row's addition by
// their physical range; an int64 column, an expression and a constant other
// than count(*)'s do not.
func TestAddBound(t *testing.T) {
	col := func(vals ...int64) *storage.Column { return storage.Compress("c", vals, storage.LogInt) }
	for _, c := range []struct {
		name string
		arg  expr.Expr
		col  *storage.Column
		want uint64
	}{
		{"count(*)", &expr.Const{Val: 1}, nil, 1},
		{"int8", expr.NewCol("c"), col(-128, 127), 1 << 7},
		{"int16", expr.NewCol("c"), col(-32768), 1 << 15},
		{"int32", expr.NewCol("c"), col(1 << 20), 1 << 31},
		{"int64", expr.NewCol("c"), col(1 << 40), 0},
		{"unresolved column", expr.NewCol("c"), nil, 0},
		{"other constant", &expr.Const{Val: 2}, nil, 0},
		{"expression", &expr.Arith{Op: expr.Add, L: expr.NewCol("c"), R: &expr.Const{Val: 1}}, col(1), 0},
	} {
		if got := addBound(c.arg, c.col); got != c.want {
			t.Errorf("%s: addBound = %d, want %d", c.name, got, c.want)
		}
	}
}

// rangeEntry reads the cached range of the catalog's r.col without going
// through colRange, so a hit proves an earlier merge wrote it.
func rangeEntry(e *Engine, col string) (statsEntry, bool) {
	r := e.DB.MustTable("r")
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats.get(statsKey{table: r, col: r.MustColumn(col), kind: statRange})
}

// appendKeys registers r with extra rows whose r_c values are keys.
func appendKeys(t *testing.T, db *storage.Database, keys ...int64) {
	t.Helper()
	r := db.MustTable("r")
	cols := make([]*storage.Column, len(r.Columns))
	for i, c := range r.Columns {
		delta := make([]int64, len(keys))
		if c.Name == "r_c" {
			copy(delta, keys)
		}
		cols[i] = c.Append(delta)
	}
	db.AddTable(storage.MustNewTable("r", cols...))
}

// TestMergeStatsOnAppendRange: an append merges a cached column range —
// old ∪ the delta's, pinned to the new column object — instead of dropping
// it, whether the new keys fall inside, below or above the old range; a
// replacement still drops it.
func TestMergeStatsOnAppendRange(t *testing.T) {
	db := testDB(t, 10_000, 100, 8)
	e := NewEngine(db)
	if lo, hi := e.colRange(db.MustTable("r"), db.MustTable("r").MustColumn("r_c")); lo != 0 || hi != 7 {
		t.Fatalf("initial range [%d, %d], want [0, 7]", lo, hi)
	}
	for _, step := range []struct {
		name   string
		keys   []int64
		lo, hi int64
	}{
		{"inside", []int64{3, 5, 0}, 0, 7},
		{"below", []int64{-40, 2}, -40, 7},
		{"above", []int64{1, 90_000, 12}, -40, 90_000},
	} {
		old := db.MustTable("r")
		appendKeys(t, db, step.keys...)
		e.MergeStatsOnAppend(old, db.MustTable("r"))
		col := db.MustTable("r").MustColumn("r_c")
		ent, ok := rangeEntry(e, "r_c")
		if !ok {
			t.Fatalf("%s: range entry not moved to the new column: the next compile rescans it", step.name)
		}
		if lo, hi := col.Range(); ent.lo != lo || ent.hi != hi || lo != step.lo || hi != step.hi {
			t.Fatalf("%s: merged range [%d, %d], fresh scan [%d, %d], want [%d, %d]",
				step.name, ent.lo, ent.hi, lo, hi, step.lo, step.hi)
		}
		if lo, hi := e.colRange(db.MustTable("r"), col); lo != step.lo || hi != step.hi {
			t.Fatalf("%s: colRange [%d, %d] after the merge", step.name, lo, hi)
		}
	}

	// A replacement (ReplaceRows, CreateTable) drops the entry: the new
	// column shares no prefix with the old one.
	e.InvalidateStats("r")
	if _, ok := rangeEntry(e, "r_c"); ok {
		t.Fatal("range entry survived InvalidateStats")
	}
}

// TestColRangeIgnoresForeignColumns: a compile that overlaps a write can
// hold a column the catalog has already replaced. colRange answers for the
// column it was handed, and its entry never serves the replacement's column.
func TestColRangeIgnoresForeignColumns(t *testing.T) {
	db := testDB(t, 1000, 10, 8)
	e := NewEngine(db)
	oldTab := db.MustTable("r")
	appendKeys(t, db, 500)
	if lo, hi := e.colRange(oldTab, oldTab.MustColumn("r_c")); lo != 0 || hi != 7 {
		t.Fatalf("stale column's range [%d, %d], want its own [0, 7]", lo, hi)
	}
	if _, ok := rangeEntry(e, "r_c"); ok {
		t.Fatal("a replaced column's range is served for the current column")
	}
	if lo, hi := e.colRange(db.MustTable("r"), db.MustTable("r").MustColumn("r_c")); lo != 0 || hi != 500 {
		t.Fatalf("current column's range [%d, %d], want [0, 500]", lo, hi)
	}
	if ent, ok := rangeEntry(e, "r_c"); !ok || ent.hi != 500 {
		t.Fatal("the catalog column's range was not cached")
	}
}

// narrowKeysDB is one table with two int16 group keys holding five and
// three distinct values, and a value column.
func narrowKeysDB(rows int) *storage.Database {
	k1, k2, v := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range k1 {
		k1[i] = int64(1000 + i%5)
		k2[i] = int64(-300 + 100*(i%3))
		v[i] = int64(i % 11)
	}
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("t",
		storage.Compress("k1", k1, storage.LogInt),
		storage.Compress("k2", k2, storage.LogInt),
		storage.Compress("v", v, storage.LogInt)))
	return db
}

// TestNarrowKeysPackByRange: 8- and 16-bit key columns are sized by the
// values they hold, not by their physical width — two int16 keys with a
// handful of values pack to a few hundred slots instead of 2^32.
func TestNarrowKeysPackByRange(t *testing.T) {
	const rows = 3000
	db := narrowKeysDB(rows)
	if k := db.MustTable("t").MustColumn("k1").Kind; k != storage.KindInt16 {
		t.Fatalf("fixture key stored as %v, want int16", k)
	}
	e := NewEngine(db)
	defer e.Close()
	p, err := e.Prepare(Select{
		Root: "t", GroupBy: []string{"k1", "k2"},
		Aggs:    []SelectAgg{{Kind: AggSum, Arg: expr.NewCol("v"), As: "s"}, {Kind: AggCount, As: "n"}},
		Project: []SelectProj{{Expr: expr.NewCol("k1"), As: "k1"}, {Expr: expr.NewCol("k2"), As: "k2"}, {Expr: expr.NewCol("s"), As: "s"}, {Expr: expr.NewCol("n"), As: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, ex, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * 201; ex.DenseDomain != want {
		t.Fatalf("DenseDomain = %d, want %d (5 values of k1 × the 201-wide range of k2)", ex.DenseDomain, want)
	}
	type key struct{ k1, k2 int64 }
	want := map[key][2]int64{}
	for i := 0; i < rows; i++ {
		k := key{int64(1000 + i%5), int64(-300 + 100*(i%3))}
		want[k] = [2]int64{want[k][0] + int64(i%11), want[k][1] + 1}
	}
	got := selectRows(res)
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i, row := range got {
		if w := want[key{row[0], row[1]}]; row[2] != w[0] || row[3] != w[1] {
			t.Errorf("group (%d, %d) = (%d, %d), want %v", row[0], row[1], row[2], row[3], w)
		}
		if i > 0 {
			if prev := got[i-1]; prev[0] > row[0] || prev[0] == row[0] && prev[1] >= row[1] {
				t.Errorf("rows %d and %d out of key order", i-1, i)
			}
		}
	}
}

// TestDenseFormChoice runs the classic group-by on each side of the form
// rule and checks the form, the pricing and the answers, then the groupjoin's
// key-addressed table over its parent's positions.
func TestDenseFormChoice(t *testing.T) {
	db := testDB(t, 60_000, 500, 2000)
	sparse := testDB(t, 60_000, 500, 2000)
	appendKeys(t, sparse, 1<<40) // one far key: no key-addressed table covers the range
	e, es := NewEngine(db), NewEngine(sparse)
	defer e.Close()
	defer es.Close()
	e.Workers, es.Workers = 2, 2
	col := expr.NewCol
	for _, c := range []struct {
		name string
		e    *Engine
		want int
	}{
		{"dense key", e, 2000},
		{"sparse key", es, 0},
	} {
		q := GroupAgg{Table: "r", Filter: lt("r_x", 50), Key: col("r_c"), Agg: col("r_a")}
		got, ex, err := groupsOnce(c.e.PrepareGroupAgg(q))
		if err != nil {
			t.Fatal(err)
		}
		if ex.DenseDomain != c.want {
			t.Errorf("%s: DenseDomain = %d, want %d", c.name, ex.DenseDomain, c.want)
		}
		if _, ok := ex.Costs["dense"]; ok != (c.want > 0) {
			t.Errorf("%s: Costs has a dense entry = %v", c.name, ok)
		}
		if c.want > 0 {
			// r_a is an int8 column over 60K rows: one-word records, and
			// the throwaway record's.
			if ex.HTBytes != 8*(c.want+1) {
				t.Errorf("%s: HTBytes = %d, want the packed record array's %d", c.name, ex.HTBytes, 8*(c.want+1))
			}
			if ex.Costs["dense"] > ex.Costs["hashed"] {
				t.Errorf("%s: dense priced %v above hashed %v", c.name, ex.Costs["dense"], ex.Costs["hashed"])
			}
		}
		sameGroups(t, c.name, got, refGroup(c.e.DB, 50))
	}

	// A packed table folds a row with one add, the count riding in the sum's
	// word, so value masking masks one lane, not a lane and the count: at 95 %
	// it undercuts key masking's priced throwaway access on the 16 KB table.
	q := GroupAgg{Table: "r", Filter: lt("r_x", 95), Key: col("r_c"), Agg: col("r_a")}
	res, ex, err := once(e.Prepare(groupSpec(q)))
	if err != nil {
		t.Fatal(err)
	}
	form := e.Params.KeyAddressed()
	vm := form.ValueMaskingGroup(60_000, expr.CompCost(q.Agg, e.Params)+form.CompMul, ex.HTBytes)
	if ex.Technique != TechValueMasking || ex.HTBytes != 8*2001 || ex.Costs["value-masking"] != vm {
		t.Errorf("packed at 95%%: %s, HTBytes %d, value masking priced %v (want value-masking, %d and %v); costs %v",
			ex.Technique, ex.HTBytes, ex.Costs["value-masking"], 8*2001, vm, ex.Costs)
	}
	sameGroups(t, "packed at 95%", resultMap(res), refGroup(db, 95))

	// The eager groupjoin's table is key-addressed over the parent's 500
	// positions.
	gj := GroupJoinAgg{Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk", BuildFilter: lt("s_x", 50), Agg: col("r_a")}
	if _, ex, err := groupsOnce(e.PrepareGroupJoinAgg(gj)); err != nil {
		t.Fatal(err)
	} else if ex.Technique != TechEagerAggregation || ex.DenseDomain != 500 {
		t.Errorf("groupjoin: %s DenseDomain=%d", ex.Technique, ex.DenseDomain)
	}
}

// TestPackedCompileSites: the three statements that build a one-lane
// key-addressed table — the classic group-by, the eager groupjoin and a
// grouped statement with a count beside its sum — pack an int16 sum over 65,535 rows and
// not over one row more, each answering the reference at two workers, where
// the packed partials merge by word addition.
func TestPackedCompileSites(t *testing.T) {
	for _, rows := range []int{65_535, 65_536} {
		c, v, fk := make([]int64, rows), make([]int64, rows), make([]int64, rows)
		want := map[int64]int64{}
		for i := range c {
			c[i], fk[i] = int64(i%7), int64(i%7)
			v[i] = []int64{math.MinInt16, math.MaxInt16, -3}[i%3]
			if i%7 != 6 {
				v[i] = math.MinInt16 // six keys' sums run toward -2^31/7
			}
			want[c[i]] += v[i]
		}
		db := storage.NewDatabase()
		db.AddTable(storage.MustNewTable("r", storage.Compress("r_c", c, storage.LogInt),
			storage.Compress("r_v", v, storage.LogInt), storage.Compress("r_fk", fk, storage.LogInt)))
		db.AddTable(storage.MustNewTable("s", storage.Compress("s_pk", []int64{0, 1, 2, 3, 4, 5, 6}, storage.LogInt)))
		if err := db.AddFKIndex("r", "r_fk", "s", "s_pk"); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(db)
		e.Workers, e.MorselRows = 2, 1024
		wantBytes := 8 * 16 // seven groups and the throwaway record
		if rows == 65_535 {
			wantBytes = 8 * 8
		}
		group, gex, err := groupsOnce(e.PrepareGroupAgg(GroupAgg{Table: "r", Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_v")}))
		if err != nil {
			t.Fatal(err)
		}
		join, jex, err := groupsOnce(e.PrepareGroupJoinAgg(GroupJoinAgg{Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk", Agg: expr.NewCol("r_v")}))
		if err != nil {
			t.Fatal(err)
		}
		sel, sex, err := once(e.Prepare(Select{Root: "r", GroupBy: []string{"r_c"},
			Aggs:    []SelectAgg{{Kind: AggSum, Arg: expr.NewCol("r_v"), As: "s"}, {Kind: AggCount, As: "n"}},
			Project: []SelectProj{{Expr: expr.NewCol("r_c"), As: "r_c"}, {Expr: expr.NewCol("s"), As: "s"}}}))
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range []struct {
			name string
			got  map[int64]int64
			ex   Explain
		}{{"group-by", group, gex}, {"groupjoin", join, jex}, {"tile pipeline", resultMap(sel), sex}} {
			if site.ex.DenseDomain != 7 || site.ex.HTBytes != wantBytes {
				t.Errorf("%d rows, %s: DenseDomain=%d HTBytes=%d, want 7 and %d", rows, site.name, site.ex.DenseDomain, site.ex.HTBytes, wantBytes)
			}
			sameGroups(t, fmt.Sprintf("%d rows, %s", rows, site.name), site.got, want)
		}
		e.Close()
	}
}

// valueKeysDB is one table with a key column for each way a lone GROUP BY
// column can meet a key-addressed table — a dictionary, int8 and int16
// ranges negative at both ends, a measured int32 range, an int64 range
// starting at ht.NullKey, an int32 range too sparse for any key-addressed
// table — a filter column and an int8 value column.
func valueKeysDB(rows int) (*storage.Database, map[string][]int64) {
	cols := map[string][]int64{}
	for _, c := range []string{"kd", "k8", "k16", "k32", "k64", "sparse", "x", "v"} {
		cols[c] = make([]int64, rows)
	}
	strs := make([]string, rows)
	for i := range strs {
		strs[i] = []string{"AIR", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"}[i%6]
		cols["kd"][i] = int64(i % 6) // the dictionary's codes, in value order
		cols["k8"][i] = -128 + int64(i%10)
		cols["k16"][i] = -30_010 + int64(i*7%10)
		cols["k32"][i] = 1_000_000 + int64(i%20)
		cols["k64"][i] = math.MinInt64 + int64(i%8)
		cols["sparse"][i] = int64(i%4) * 300_000_000
		cols["x"][i] = int64(i % 3)
		cols["v"][i] = int64(i%255 - 127)
	}
	t := []*storage.Column{storage.NewStrings("kd", strs)}
	for _, c := range []string{"k8", "k16", "k32", "k64", "sparse", "x", "v"} {
		t = append(t, storage.Compress(c, cols[c], storage.LogInt))
	}
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("t", t...))
	return db, cols
}

// TestValueAddressing: a lone key column whose range a key-addressed table
// covers addresses it by value — the table starts at the column's origin —
// under every technique; an origin at ht.NullKey falls back to packed keys
// over [0, D), and two-column keys never take it. Every compile answers the
// reference.
func TestValueAddressing(t *testing.T) {
	const rows = 5000
	db, cols := valueKeysDB(rows)
	e := NewEngine(db)
	defer e.Close()
	for _, c := range []struct {
		keys    []string
		domain  int
		byValue bool
		first   int64 // the key of the table's first slot
	}{
		{[]string{"kd"}, 6, true, 0},
		{[]string{"k8"}, 10, true, -128},
		{[]string{"k16"}, 10, true, -30_010},
		{[]string{"k32"}, 20, true, 1_000_000},
		{[]string{"k64"}, 8, false, 0},
		{[]string{"sparse"}, 0, false, 0},
		{[]string{"k8", "k16"}, 100, false, 0},
		{[]string{"kd", "k32"}, 120, false, 0},
	} {
		want := map[string][3]int64{} // sum(v), max(v), count(*) per key tuple
		for i := 0; i < rows; i++ {
			if cols["x"][i] >= 2 {
				continue
			}
			k := ""
			for _, name := range c.keys {
				k += fmt.Sprint(cols[name][i], " ")
			}
			g, ok := want[k]
			if !ok {
				g[1] = math.MinInt64
			}
			want[k] = [3]int64{g[0] + cols["v"][i], max(g[1], cols["v"][i]), g[2] + 1}
		}
		spec := func() Select {
			q := Select{Root: "t", Filter: lt("x", 2), GroupBy: c.keys, Aggs: []SelectAgg{
				{Kind: AggSum, Arg: expr.NewCol("v"), As: "s"}, {Kind: AggMax, Arg: expr.NewCol("v"), As: "m"}, {Kind: AggCount, As: "n"}}}
			for _, name := range append(append([]string(nil), c.keys...), "s", "m", "n") {
				q.Project = append(q.Project, SelectProj{Expr: expr.NewCol(name), As: name})
			}
			return q
		}
		for _, tech := range append([]Technique{techAuto}, selectTechs(spec())...) {
			tag := fmt.Sprintf("%v under %v", c.keys, tech)
			p, err := e.prepareSelect(spec(), tech)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			res, ex, err := p.RunContext(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if ex.DenseDomain != c.domain || p.keys.byValue != c.byValue || c.domain > 0 && p.tab.Key(0) != c.first {
				t.Errorf("%s: DenseDomain %d, by value %v, first key %d; want %d, %v and %d",
					tag, ex.DenseDomain, p.keys.byValue, p.tab.Key(0), c.domain, c.byValue, c.first)
			}
			got := selectRows(res)
			if len(got) != len(want) {
				t.Fatalf("%s: %d groups, want %d", tag, len(got), len(want))
			}
			for _, row := range got {
				k, nk := "", len(c.keys)
				for _, v := range row[:nk] {
					k += fmt.Sprint(v, " ")
				}
				if w := want[k]; [3]int64(row[nk:]) != w {
					t.Errorf("%s: group %s= %v, want %v", tag, k, row[nk:], w)
				}
			}
		}
	}
}
