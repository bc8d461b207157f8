package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
	"github.com/reprolab/swole/internal/volcano"
)

// foldDB is TestFoldKernels' data: a root table t of rows rows holding, at
// each stored width W (8, 16, 32, 64), two group-key columns kW (13 keys from
// -3) and jW (5 keys) and three argument columns aW, bW and cW spanning the
// width both ways; int8 group keys h8 (3 keys) and q8 (16 keys) and an int32
// argument d32 within ±10^6, whose sums vec.NarrowI32 proves fit int32
// lanes; a hashed key kh (ten keys and one at 2^40); a filter column x in
// [0, 100); and a foreign key fk into a parent p whose p_a8 and p_a32 are
// argument columns read through the edge.
func foldDB(t *testing.T, rows int) *storage.Database {
	t.Helper()
	rng := uint64(rows)
	next := func(n int64) int64 {
		rng += 0x9e3779b97f4a7c15
		z := (rng ^ rng>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return int64((z ^ z>>31) % uint64(n))
	}
	at := func(name string, k storage.Kind, n int, draw func(i int) int64) *storage.Column {
		c := &storage.Column{Name: name, Kind: k, Log: storage.LogInt}
		for i := range n {
			switch v := draw(i); k {
			case storage.KindInt8:
				c.I8 = append(c.I8, int8(v))
			case storage.KindInt16:
				c.I16 = append(c.I16, int16(v))
			case storage.KindInt32:
				c.I32 = append(c.I32, int32(v))
			default:
				c.I64 = append(c.I64, v)
			}
		}
		return c
	}
	span := [4]int64{100, 30_000, 2_000_000_000, 1_000_000_000_000_000}
	kh := func(i int) int64 {
		if i == 0 {
			return 1 << 40
		}
		return next(10)
	}
	cols := []*storage.Column{
		at("x", storage.KindInt8, rows, func(int) int64 { return next(100) }),
		at("kh", storage.KindInt64, rows, kh),
		at("fk", storage.KindInt32, rows, func(int) int64 { return next(211) }),
	}
	for w := storage.KindInt8; w <= storage.KindInt64; w++ {
		n := [...]string{"8", "16", "32", "64"}[w]
		cols = append(cols,
			at("k"+n, w, rows, func(int) int64 { return next(13) - 3 }),
			at("j"+n, w, rows, func(int) int64 { return next(5) }))
		for _, arg := range []string{"a", "b", "c"} {
			cols = append(cols, at(arg+n, w, rows, func(int) int64 { return next(2*span[w]+1) - span[w] }))
		}
	}
	cols = append(cols,
		at("h8", storage.KindInt8, rows, func(int) int64 { return next(3) }),
		at("q8", storage.KindInt8, rows, func(int) int64 { return next(16) }),
		at("d32", storage.KindInt32, rows, func(int) int64 { return next(2_000_001) - 1_000_000 }))
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("t", cols...))
	db.AddTable(storage.MustNewTable("p",
		at("p_pk", storage.KindInt32, 211, func(i int) int64 { return int64(i) }),
		at("p_a8", storage.KindInt8, 211, func(int) int64 { return next(201) - 100 }),
		at("p_a32", storage.KindInt32, 211, func(int) int64 { return next(4_000_000_001) - 2_000_000_000 }),
	))
	if err := db.AddFKIndex("t", "fk", "p", "p_pk"); err != nil {
		t.Fatal(err)
	}
	return db
}

// foldCase is a statement over foldDB, compiled under tech, that binds kernel.
type foldCase struct {
	kernel string
	db     *storage.Database
	tech   Technique
	keys   []string
	aggs   []string // "sum:a8", "min:b16", "sum:a8*b16", "sum:p_a8" (through the edge), "count"
	filter int      // compares: 0, where x < 50, or where x < 50 and 1 <= j8
}

// statement is c's Select spec and its Volcano plan, each with expression
// trees of its own.
func (c foldCase) statement() (Select, plan.Node) {
	q := Select{Root: "t", GroupBy: c.keys}
	var in plan.Node = &plan.Scan{Table: "t"}
	if c.filter > 0 {
		q.Filter, in = lt("x", 50), &plan.Scan{Table: "t", Filter: lt("x", 50)}
	}
	if c.filter > 1 {
		j8 := func() expr.Expr { return &expr.Cmp{Op: expr.LE, L: &expr.Const{Val: 1}, R: expr.NewCol("j8")} }
		q.Filter = &expr.Logic{Op: expr.And, Args: []expr.Expr{q.Filter, j8()}}
		in = &plan.Scan{Table: "t", Filter: &expr.Logic{Op: expr.And, Args: []expr.Expr{lt("x", 50), j8()}}}
	}
	var aggs []plan.AggSpec
	for _, k := range c.keys {
		q.Project = append(q.Project, SelectProj{Expr: expr.NewCol(k), As: k})
	}
	arg := func(s string) expr.Expr {
		if l, r, ok := strings.Cut(s, "*"); ok {
			return &expr.Arith{Op: expr.Mul, L: expr.NewCol(l), R: expr.NewCol(r)}
		}
		if s == "" {
			return nil
		}
		return expr.NewCol(s)
	}
	for i, a := range c.aggs {
		fn, col, _ := strings.Cut(a, ":")
		kind := map[string]AggKind{"sum": AggSum, "count": AggCount, "min": AggMin, "max": AggMax}[fn]
		as := fmt.Sprintf("g%d", i)
		if strings.Contains(col, "p_") && len(q.Edges) == 0 {
			q.Edges = []SelectEdge{{Src: -1, FK: "fk", Parent: "p", PK: "p_pk"}}
			in = &plan.Join{Probe: in, Build: &plan.Scan{Table: "p"}, ProbeKey: "fk", BuildKey: "p_pk"}
		}
		q.Aggs = append(q.Aggs, SelectAgg{Kind: kind, Arg: arg(col), As: as})
		q.Project = append(q.Project, SelectProj{Expr: expr.NewCol(as), As: as})
		aggs = append(aggs, plan.AggSpec{Func: plan.AggFunc(kind), Arg: arg(col), As: as})
	}
	return q, &plan.Aggregate{Input: in, GroupBy: c.keys, Aggs: aggs}
}

// foldCases enumerates every fold key bindFold returns, each with a statement
// that binds it; the names of the widths are i8, i16, i32 and i64. A one-sum
// record packs exactly when its argument's width proves every sum fits 32
// bits: an int16 argument below 2^16 rows, an int8 one below 2^24 rows (so
// its unpacked form, sum1(K;i8)/keyed, needs 2^24 rows and is not listed),
// never a wider one. A tile vector reads at int64. A scalar fold that computes its predicate inline names its compares
// (cmp(i8) for x < 50, cmp(i8,i8) with 1 <= j8 too) where the CPU runs it.
// Where it runs the small group tables' fold (vec.HasAVX2), a record over
// int8 keys of at most 15 (13 for k8, 3·5 for h8 and j8) folding int8 or
// int32 sums, or an int32 min and max, under masking names it (/avx2); a
// domain of 16 (q8) keeps the Go loop.
func foldCases(small, wide *storage.Database) (cases []foldCase) {
	w := []string{"i8", "i16", "i32", "i64"}
	n := func(i int) string { return w[i][1:] }
	add := func(kernel string, db *storage.Database, mask string, keys []string, aggs ...string) {
		tech := map[string]Technique{"value": TechValueMasking, "key": TechKeyMasking, "none": TechValueMasking, "hybrid": TechHybrid, "cmp2": TechValueMasking}[mask]
		cases = append(cases, foldCase{kernel, db, tech, keys, aggs, map[string]int{"value": 1, "key": 1, "hybrid": 1, "cmp2": 2}[mask]})
	}
	masks := []string{"value", "key"}
	// avx2 is the variant a small table's record over int8 keys and int8 or
	// int32 arguments names.
	avx2 := func(small bool, mask string) string {
		if vec.HasAVX2 && small && mask != "none" {
			return "/avx2"
		}
		return ""
	}
	for k := range w {
		key, pair := []string{"k" + n(k)}, []string{"k" + n(k), "j" + n(k)}
		for a := range w {
			for _, mask := range []string{"value", "key", "none"} {
				table := map[bool]string{true: "packed", false: "keyed"}[a < 2]
				add(fmt.Sprintf("sum1(%s;%s)/%s/%s%s", w[k], w[a], table, mask, avx2(k == 0 && a%2 == 0, mask)), small, mask, key, "sum:a"+n(a))
				if a == 1 {
					add(fmt.Sprintf("sum1(%s;i16)/keyed/%s", w[k], mask), wide, mask, key, "sum:a16")
				}
			}
			for _, mask := range masks {
				add(fmt.Sprintf("minmax(%s;%s)/keyed/%s%s", w[k], w[a], mask, avx2(k == 0 && a == 2, mask)), small, mask, key, "min:a"+n(a), "max:a"+n(a))
				for b := range w {
					add(fmt.Sprintf("sum2(%s;%s,%s)/keyed/%s", w[k], w[a], w[b], mask), small, mask, pair, "sum:a"+n(a), "sum:b"+n(b))
					for c := range w {
						add(fmt.Sprintf("sum3(%s;%s,%s,%s)/keyed/%s", w[k], w[a], w[b], w[c], mask), small, mask, key,
							"sum:a"+n(a), "sum:b"+n(b), "sum:c"+n(c))
					}
				}
			}
		}
	}
	for _, mask := range masks {
		for a := 0; a < 4; a += 2 {
			for b := 0; b < 4; b += 2 {
				add(fmt.Sprintf("sum2(i8;%s,%s)/keyed/%s%s", w[a], w[b], mask, avx2(true, mask)), small, mask, []string{"k8"}, "sum:a"+n(a), "sum:b"+n(b))
			}
		}
		// Two key columns over 15 keys, an int32 sum in int32 lanes: q1_multiagg's shape.
		add("sum2(i8;i8,i32)/keyed/"+mask+avx2(true, mask), small, mask, []string{"h8", "j8"}, "sum:a8", "sum:d32")
		add("minmax(i8;i32)/keyed/"+mask+avx2(true, mask), small, mask, []string{"h8", "j8"}, "min:d32", "max:d32")
		add("sum1(i8;i32)/keyed/"+mask+avx2(true, mask), small, mask, []string{"h8"}, "sum:d32")
		// 16 keys: over the bound.
		add("sum1(i8;i8)/packed/"+mask, small, mask, []string{"q8"}, "sum:a8")
	}
	// A hashed table folds every record by the lane passes.
	hashed := []string{"kh"}
	for a := range w {
		for _, mask := range masks {
			lanes := "lanes(i64)/hashed/" + mask
			add(lanes, small, mask, hashed, "max:a"+n(a), "min:a"+n(a))
			for b := range w {
				add(lanes, small, mask, hashed, "sum:a"+n(a), "sum:b"+n(b))
				for c := range w {
					add(lanes, small, mask, hashed, "sum:a"+n(a), "sum:b"+n(b), "sum:c"+n(c))
				}
			}
		}
	}
	// One sum over tile vectors: hybrid's pairs, and value masking of a
	// parent column, which no record reads.
	k8 := []string{"k8"}
	add("sum1(i64;i64)/packed/none", small, "hybrid", k8, "sum:a8")
	add("sum1(i64;i64)/keyed/none", small, "hybrid", k8, "sum:a32")
	add("sum1(i64;i64)/packed/value", small, "value", k8, "sum:p_a8")
	add("sum1(i64;i64)/keyed/value", small, "value", k8, "sum:p_a32")
	// The lane passes.
	add("lanes(i64)/keyed/value", small, "value", k8, "sum:a8", "min:b8")
	add("lanes(i64)/keyed/value", small, "hybrid", []string{"k8", "j8"}, "sum:a8", "max:b16", "count")
	add("lanes(i64)/keyed/value", small, "value", k8, "count")
	add("lanes(i64)/hashed/value", small, "value", hashed, "sum:a8")
	add("lanes(i64)/keyed/key", small, "key", k8, "min:a8", "sum:b8")
	add("lanes(i64)/keyed/key", small, "key", k8, "sum:p_a32")
	add("lanes(i64)/packed/key", small, "key", k8, "sum:p_a8")
	add("lanes(i64)/hashed/key", small, "key", hashed, "sum:a8", "max:b32")
	// Scalar lanes. The count, sum(a) and sum(a*b) over int8 under an int8
	// filter compute their predicate inline where the CPU runs the loop, and
	// keep the mask without a filter.
	inline := func(lanes string, aggs ...string) {
		add(lanes+"/scalar/value", small, "none", nil, aggs...)
		if !vec.HasAVX2 {
			add(lanes+"/scalar/value", small, "value", nil, aggs...)
			return
		}
		add(lanes+"/scalar/cmp(i8)/avx2", small, "value", nil, aggs...)
		add(lanes+"/scalar/cmp(i8,i8)/avx2", small, "cmp2", nil, aggs...)
	}
	inline("count", "count")
	for a := range w {
		if a == 0 {
			inline("sum(i8)", "sum:a8")
		} else {
			add(fmt.Sprintf("sum(%s)/scalar/value", w[a]), small, "value", nil, "sum:a"+n(a))
		}
		for b := range w {
			if a+b == 0 {
				inline("sumprod(i8,i8)", "sum:a8*b8", "count")
			} else {
				add(fmt.Sprintf("sumprod(%s,%s)/scalar/value", w[a], w[b]), small, "value", nil, "sum:a"+n(a)+"*b"+n(b))
			}
		}
	}
	add("sum(i64)/scalar/value", small, "hybrid", nil, "sum:a8")
	add("sum(i64)/scalar/value", small, "value", nil, "sum:p_a8")
	add("sumprod(i64,i64)/scalar/value", small, "hybrid", nil, "sum:a8*b8")
	add("sumprod(i8,i64)/scalar/value", small, "value", nil, "sum:a8*p_a8")
	add("sumprod(i64,i16)/scalar/value", small, "value", nil, "sum:p_a32*b16")
	add("min(i64)/scalar/value", small, "value", nil, "min:a16")
	add("max(i64)/scalar/value", small, "value", nil, "max:b32")
	add("sum(i8)+min(i64)+sum(i64)+sum(i64)/scalar/value", small, "value", nil, "sum:a8", "min:b8", "sum:c8*c8", "sum:c8*c8")
	return cases
}

// TestFoldKernels reaches every fold key bindFold can return (foldCases): a
// statement that binds each is compiled under its technique, must name the
// key in Explain.Kernel and answer as Volcano does, and its group table's
// throwaway record must have counted every rejected row under key masking on
// a key-addressed table and none otherwise; the same statement compiled by
// the cost model must answer as Volcano does too, at one worker and at two.
// Row counts are not multiples of 8, 64 or vec.TileSize, and morsels of 1,536
// rows end in a half tile.
func TestFoldKernels(t *testing.T) {
	small, wide := foldDB(t, 5_003), foldDB(t, 65_543)
	engines, rejected := map[*storage.Database][]*Engine{}, map[*storage.Database]int64{}
	for _, db := range []*storage.Database{small, wide} {
		x := db.Table("t").Column("x")
		for i := range x.Len() {
			rejected[db] += int64(min(x.Get(i)/50, 1))
		}
		for workers := 1; workers <= 2; workers++ {
			e := NewEngine(db)
			e.Workers, e.MorselRows = workers, 1_536
			defer e.Close()
			engines[db] = append(engines[db], e)
		}
	}
	want, reached, checked := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, c := range foldCases(small, wide) {
		want[c.kernel] = true
		spec, node := c.statement()
		tag := fmt.Sprintf("%s %v %v (rows %d, %s)", c.kernel, c.keys, c.aggs, c.db.Table("t").Rows(), c.tech)
		ref, err := volcano.Run(context.Background(), node, c.db)
		if err != nil {
			t.Fatalf("%s: volcano: %v", tag, err)
		}
		p, err := engines[c.db][0].PrepareForced(spec, c.tech)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		res, ex, err := p.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if ex.Kernel != c.kernel {
			t.Errorf("%s: kernel %s", tag, ex.Kernel)
		} else {
			reached[c.kernel] = true
		}
		if !ref.EqualRows(selectRows(res)) {
			t.Errorf("%s: answer %v, volcano %v", tag, selectRows(res), ref.SortedRows())
		}
		if p.tab != nil {
			tw, want := p.tab.Count(-1), int64(0)
			if strings.HasSuffix(strings.TrimSuffix(c.kernel, "/avx2"), "/key") && !strings.Contains(c.kernel, "/hashed/") {
				want = rejected[c.db]
			}
			if tw != want {
				t.Errorf("%s: the throwaway record counted %d rows, want %d", tag, tw, want)
			}
		}
		if text := fmt.Sprint(c.db.Table("t").Rows(), c.keys, c.aggs, c.filter); !checked[text] {
			checked[text] = true
			for _, e := range engines[c.db] {
				spec, _ := c.statement()
				res, ex, err := once(e.Prepare(spec))
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !ref.EqualRows(selectRows(res)) {
					t.Errorf("%s: cost model's %s (%s) at %d workers: answer %v, volcano %v", tag, ex.Technique, ex.Kernel, ex.Workers, selectRows(res), ref.SortedRows())
				}
			}
		}
	}
	for k := range want {
		if !reached[k] {
			t.Errorf("fold key %s never reached", k)
		}
	}
}
