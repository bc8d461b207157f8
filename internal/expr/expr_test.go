package expr

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

func testTable(t *testing.T) *storage.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	n := 3000
	x := make([]int64, n)
	y := make([]int64, n)
	a := make([]int64, n)
	s := make([]string, n)
	words := []string{"PROMO BRUSHED", "STANDARD TIN", "PROMO PLATED", "ECONOMY BURNISHED"}
	for i := 0; i < n; i++ {
		x[i] = int64(rng.Intn(100))
		y[i] = int64(rng.Intn(4))
		a[i] = int64(rng.Intn(1000) - 500)
		s[i] = words[rng.Intn(len(words))]
	}
	return storage.MustNewTable("r",
		storage.Compress("x", x, storage.LogInt),
		storage.Compress("y", y, storage.LogInt),
		storage.Compress("a", a, storage.LogInt),
		storage.NewStrings("s", s),
	)
}

// rowSchema is a positional Source: names[i] is read at position i of a row
// or of a tile's vectors.
type rowSchema struct {
	names []string
	dicts []*storage.Dict
}

func (s rowSchema) Leaf(name string) (Leaf, error) {
	for i, n := range s.names {
		if n == name {
			return Leaf{Slot: i, Dict: s.dicts[i]}, nil
		}
	}
	return Leaf{}, NoColumn(name)
}

// schemaOf is tab's columns as positions, in column order.
func schemaOf(tab *storage.Table) (s rowSchema) {
	for _, c := range tab.Columns {
		s.names, s.dicts = append(s.names, c.Name), append(s.dicts, c.Dict)
	}
	return s
}

// evalBothWays binds e twice — every leaf to its stored column, then every
// leaf to a slot holding that column widened — and checks that the tile
// walker agrees with the scalar walker on every row under both bindings, and
// the bindings with each other. It returns the scalar results.
func evalBothWays(t *testing.T, tab *storage.Table, e Expr, boolean bool) []int64 {
	t.Helper()
	if err := Bind(e, Columns(tab)); err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	n := tab.Rows()
	got := make([]int64, n)
	for i := 0; i < n; i++ {
		got[i] = Eval(e, i, nil)
	}
	ev := NewEvaluator()
	outI := make([]int64, vec.TileSize)
	outB := make([]byte, vec.TileSize)
	vecs := make([][]int64, len(tab.Columns))
	for c := range vecs {
		vecs[c] = make([]int64, vec.TileSize)
	}
	checkTiles := func(binding string, slots bool) {
		vec.Tiles(n, func(base, length int) {
			tile := Rows(base, length)
			if slots {
				for c, col := range tab.Columns {
					col.WidenInto(base, length, vecs[c])
				}
				tile = Tile{N: length, Vecs: vecs}
			}
			if boolean {
				ev.EvalBool(e, tile, outB)
			} else {
				ev.EvalInt(e, tile, outI)
			}
			for j := 0; j < length; j++ {
				v := outI[j]
				if boolean {
					v = int64(outB[j])
				}
				if v != got[base+j] {
					t.Fatalf("%s bound to %s: row %d: tile=%d scalar=%d", e, binding, base+j, v, got[base+j])
				}
			}
		})
	}
	checkTiles("columns", false)
	if err := Bind(e, schemaOf(tab)); err != nil {
		t.Fatalf("Bind(%s) to slots: %v", e, err)
	}
	row := make([]int64, len(tab.Columns))
	for i := 0; i < n; i++ {
		for c, col := range tab.Columns {
			row[c] = col.Get(i)
		}
		if v := Eval(e, 0, row); v != got[i] {
			t.Fatalf("%s: row %d: scalar over slots=%d, over columns=%d", e, i, v, got[i])
		}
	}
	checkTiles("slots", true)
	return got
}

func TestComparisonsAndLogic(t *testing.T) {
	tab := testTable(t)
	exprs := []Expr{
		&Cmp{Op: LT, L: NewCol("x"), R: &Const{Val: 13}},
		&Cmp{Op: GE, L: NewCol("x"), R: NewCol("y")},
		&Logic{Op: And, Args: []Expr{
			&Cmp{Op: LT, L: NewCol("x"), R: &Const{Val: 50}},
			&Cmp{Op: EQ, L: NewCol("y"), R: &Const{Val: 1}},
		}},
		&Logic{Op: Or, Args: []Expr{
			&Cmp{Op: EQ, L: NewCol("y"), R: &Const{Val: 0}},
			&Cmp{Op: GT, L: NewCol("x"), R: &Const{Val: 90}},
		}},
		&Logic{Op: Not, Args: []Expr{&Cmp{Op: LT, L: NewCol("x"), R: &Const{Val: 13}}}},
		&Between{X: NewCol("x"), Lo: &Const{Val: 10}, Hi: &Const{Val: 20}},
		&In{X: NewCol("y"), List: []Expr{&Const{Val: 1}, &Const{Val: 3}}},
		&In{X: NewCol("x"), List: []Expr{NewCol("y"), &Arith{Op: Add, L: NewCol("y"), R: &Const{Val: 40}}, &Const{Val: 3}}},
		&Between{X: NewCol("x"), Lo: NewCol("y"), Hi: &Arith{Op: Mul, L: NewCol("y"), R: &Const{Val: 20}}},
		&Cmp{Op: GT, L: &Const{Val: 13}, R: &Arith{Op: Add, L: NewCol("x"), R: NewCol("y")}},
	}
	for _, e := range exprs {
		vals := evalBothWays(t, tab, e, true)
		ones := int64(0)
		for _, v := range vals {
			if v != 0 && v != 1 {
				t.Fatalf("%s produced non-boolean %d", e, v)
			}
			ones += v
		}
		if ones == 0 || ones == int64(len(vals)) {
			t.Logf("warning: %s is degenerate on test data (%d/%d)", e, ones, len(vals))
		}
	}
}

func TestArithmetic(t *testing.T) {
	tab := testTable(t)
	e := &Arith{Op: Add,
		L: &Arith{Op: Mul, L: NewCol("a"), R: NewCol("x")},
		R: &Arith{Op: Sub, L: NewCol("y"), R: &Const{Val: 7}},
	}
	vals := evalBothWays(t, tab, e, false)
	// Spot-check row 0 against direct computation.
	a := tab.MustColumn("a").Get(0)
	x := tab.MustColumn("x").Get(0)
	y := tab.MustColumn("y").Get(0)
	if vals[0] != a*x+(y-7) {
		t.Errorf("row 0: got %d, want %d", vals[0], a*x+(y-7))
	}
	// Division truncates toward zero like SQL integer division.
	d := &Arith{Op: Div, L: NewCol("a"), R: &Const{Val: 3}}
	vals = evalBothWays(t, tab, d, false)
	if vals[1] != tab.MustColumn("a").Get(1)/3 {
		t.Errorf("div: got %d", vals[1])
	}
	// Division is total: y is zero on a quarter of the rows.
	vals = evalBothWays(t, tab, &Arith{Op: Div, L: NewCol("a"), R: NewCol("y")}, false)
	for i, v := range vals {
		a, y := tab.MustColumn("a").Get(i), tab.MustColumn("y").Get(i)
		if want := int64(0); y != 0 && v != a/y || y == 0 && v != want {
			t.Fatalf("row %d: %d / %d = %d", i, a, y, v)
		}
	}
}

func TestStringEquality(t *testing.T) {
	tab := testTable(t)
	e := &Cmp{Op: EQ, L: NewCol("s"), R: &StrConst{Val: "ECONOMY BURNISHED"}}
	vals := evalBothWays(t, tab, e, true)
	col := tab.MustColumn("s")
	for i, v := range vals {
		want := int64(0)
		if col.GetString(i) == "ECONOMY BURNISHED" {
			want = 1
		}
		if v != want {
			t.Fatalf("row %d: got %d, want %d", i, v, want)
		}
	}
	// Absent string: EQ always false, NE always true.
	abs := &Cmp{Op: EQ, L: NewCol("s"), R: &StrConst{Val: "NO SUCH"}}
	for _, v := range evalBothWays(t, tab, abs, true) {
		if v != 0 {
			t.Fatal("EQ against absent string matched")
		}
	}
	absNE := &Cmp{Op: NE, L: NewCol("s"), R: &StrConst{Val: "NO SUCH"}}
	for _, v := range evalBothWays(t, tab, absNE, true) {
		if v != 1 {
			t.Fatal("NE against absent string failed")
		}
	}
}

func TestStringIn(t *testing.T) {
	tab := testTable(t)
	e := &In{X: NewCol("s"), List: []Expr{
		&StrConst{Val: "ECONOMY BURNISHED"}, &StrConst{Val: "STANDARD TIN"}, &StrConst{Val: "NO SUCH"},
	}}
	vals := evalBothWays(t, tab, e, true)
	col := tab.MustColumn("s")
	for i, v := range vals {
		s := col.GetString(i)
		want := int64(0)
		if s == "ECONOMY BURNISHED" || s == "STANDARD TIN" {
			want = 1
		}
		if v != want {
			t.Fatalf("row %d (%s): got %d, want %d", i, s, v, want)
		}
	}
}

func TestLike(t *testing.T) {
	tab := testTable(t)
	e := &Like{X: NewCol("s"), Pattern: "PROMO%"}
	vals := evalBothWays(t, tab, e, true)
	col := tab.MustColumn("s")
	for i, v := range vals {
		s := col.GetString(i)
		want := int64(0)
		if len(s) >= 5 && s[:5] == "PROMO" {
			want = 1
		}
		if v != want {
			t.Fatalf("row %d (%s): got %d", i, s, v)
		}
	}
	neg := &Like{X: NewCol("s"), Pattern: "%TIN", Negate: true}
	vals = evalBothWays(t, tab, neg, true)
	for i, v := range vals {
		s := col.GetString(i)
		want := int64(1)
		if len(s) >= 3 && s[len(s)-3:] == "TIN" {
			want = 0
		}
		if v != want {
			t.Fatalf("not like row %d (%s): got %d", i, s, v)
		}
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"abc", "%a%b%c%", true},
		{"axbyc", "a%b%c", true},
		{"acb", "a%b%c", false},
		// The Q13 pattern shape: three wildcards.
		{"the special packages requests", "%special%requests%", true},
		{"the special pack", "%special%requests%", false},
		{"specialrequests", "%special%requests%", true},
		// Greedy backtracking.
		{"aaa", "%a", true},
		{"abab", "%ab", true},
		{"abab", "ab%ab", true},
		{"ab", "ab%ab", false},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestCase(t *testing.T) {
	tab := testTable(t)
	e := &Case{
		Whens: []CaseWhen{
			{Cond: &Cmp{Op: LT, L: NewCol("x"), R: &Const{Val: 20}}, Then: &Const{Val: 100}},
			{Cond: &Cmp{Op: LT, L: NewCol("x"), R: &Const{Val: 60}}, Then: NewCol("a")},
		},
		Else: &Const{Val: -5},
	}
	vals := evalBothWays(t, tab, e, false)
	xc, ac := tab.MustColumn("x"), tab.MustColumn("a")
	for i, v := range vals {
		var want int64
		switch {
		case xc.Get(i) < 20:
			want = 100
		case xc.Get(i) < 60:
			want = ac.Get(i)
		default:
			want = -5
		}
		if v != want {
			t.Fatalf("row %d: got %d, want %d (x=%d)", i, v, want, xc.Get(i))
		}
	}
	// Without ELSE, non-matching rows yield 0.
	noElse := &Case{Whens: []CaseWhen{
		{Cond: &Cmp{Op: LT, L: NewCol("x"), R: &Const{Val: 0}}, Then: &Const{Val: 9}},
	}}
	for _, v := range evalBothWays(t, tab, noElse, false) {
		if v != 0 {
			t.Fatal("CASE without ELSE must default to 0")
		}
	}
}

func TestBindErrors(t *testing.T) {
	tab := testTable(t)
	src := Columns(tab)
	if err := Bind(NewCol("nope"), src); err == nil {
		t.Error("unknown column bound")
	}
	if err := Bind(&Like{X: NewCol("x"), Pattern: "%"}, src); err == nil {
		t.Error("LIKE on integer column bound")
	}
	if err := Bind(&Cmp{Op: EQ, L: NewCol("x"), R: &StrConst{Val: "s"}}, src); err == nil {
		t.Error("string literal vs int column bound")
	}
}

func TestCols(t *testing.T) {
	e := &Logic{Op: And, Args: []Expr{
		&Cmp{Op: LT, L: NewCol("x"), R: &Const{Val: 1}},
		&Cmp{Op: EQ, L: &Arith{Op: Mul, L: NewCol("x"), R: NewCol("a")}, R: NewCol("y")},
	}}
	got := Cols(e)
	want := []string{"x", "a", "y"}
	if len(got) != len(want) {
		t.Fatalf("Cols=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Cols[%d]=%s, want %s", i, got[i], want[i])
		}
	}
}

func TestCompCost(t *testing.T) {
	p := cost.Default()
	mul := &Arith{Op: Mul, L: NewCol("a"), R: NewCol("b")}
	div := &Arith{Op: Div, L: NewCol("a"), R: NewCol("b")}
	if CompCost(div, p) <= CompCost(mul, p) {
		t.Error("division must cost more than multiplication")
	}
	pred := &Logic{Op: And, Args: []Expr{
		&Cmp{Op: LT, L: NewCol("x"), R: &Const{Val: 1}},
		&Cmp{Op: EQ, L: NewCol("y"), R: &Const{Val: 1}},
	}}
	if CompCost(pred, p) != 2*p.CompCmp {
		t.Errorf("two comparisons should cost 2*CompCmp, got %v", CompCost(pred, p))
	}
}

func TestStrings(t *testing.T) {
	e := &Logic{Op: And, Args: []Expr{
		&Cmp{Op: LT, L: NewCol("r_x"), R: &Const{Val: 13}},
		&Like{X: NewCol("s"), Pattern: "a%", Negate: true},
	}}
	want := "(r_x < 13) and (s not like 'a%')"
	if e.String() != want {
		t.Errorf("String()=%q, want %q", e.String(), want)
	}
	c := &Case{Whens: []CaseWhen{{Cond: &Cmp{Op: EQ, L: NewCol("y"), R: &Const{Val: 1}}, Then: &Const{Val: 2}}}}
	if c.String() != "case when y = 1 then 2 end" {
		t.Errorf("case String()=%q", c.String())
	}
	b := &Between{X: NewCol("x"), Lo: &Const{Val: 1, Repr: "0.01"}, Hi: &Const{Val: 3}}
	if b.String() != "x between 0.01 and 3" {
		t.Errorf("between String()=%q", b.String())
	}
	in := &In{X: NewCol("y"), List: []Expr{&Const{Val: 1}, &StrConst{Val: "z"}}}
	if in.String() != "y in (1, 'z')" {
		t.Errorf("in String()=%q", in.String())
	}
}

func TestUnboundStrConstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	(&StrConst{Val: "x"}).Code()
}

func testSchema() rowSchema {
	dict := storage.NewDict([]string{"apple", "banana", "cherry"})
	return rowSchema{
		names: []string{"a", "b", "s"},
		dicts: []*storage.Dict{nil, nil, dict},
	}
}

func TestEvalRowAllNodes(t *testing.T) {
	s := testSchema()
	appleCode, _ := s.dicts[2].Code("apple")
	row := []int64{7, -3, appleCode}

	cases := []struct {
		e    Expr
		want int64
	}{
		{NewCol("a"), 7},
		{&Const{Val: 42}, 42},
		{&Arith{Op: Add, L: NewCol("a"), R: NewCol("b")}, 4},
		{&Arith{Op: Sub, L: NewCol("a"), R: NewCol("b")}, 10},
		{&Arith{Op: Mul, L: NewCol("a"), R: NewCol("b")}, -21},
		{&Arith{Op: Div, L: NewCol("a"), R: &Const{Val: 2}}, 3},
		{&Cmp{Op: LT, L: NewCol("b"), R: NewCol("a")}, 1},
		{&Cmp{Op: LE, L: NewCol("a"), R: NewCol("a")}, 1},
		{&Cmp{Op: GT, L: NewCol("b"), R: NewCol("a")}, 0},
		{&Cmp{Op: GE, L: NewCol("b"), R: NewCol("a")}, 0},
		{&Cmp{Op: EQ, L: NewCol("s"), R: &StrConst{Val: "apple"}}, 1},
		{&Cmp{Op: NE, L: NewCol("s"), R: &StrConst{Val: "banana"}}, 1},
		{&Between{X: NewCol("a"), Lo: &Const{Val: 0}, Hi: &Const{Val: 10}}, 1},
		{&Between{X: NewCol("b"), Lo: &Const{Val: 0}, Hi: &Const{Val: 10}}, 0},
		{&In{X: NewCol("a"), List: []Expr{&Const{Val: 7}, &Const{Val: 9}}}, 1},
		{&In{X: NewCol("a"), List: []Expr{&Const{Val: 9}}}, 0},
		{&In{X: NewCol("s"), List: []Expr{&StrConst{Val: "apple"}, &StrConst{Val: "cherry"}}}, 1},
		{&Like{X: NewCol("s"), Pattern: "app%"}, 1},
		{&Like{X: NewCol("s"), Pattern: "app%", Negate: true}, 0},
		{&Logic{Op: And, Args: []Expr{&Cmp{Op: GT, L: NewCol("a"), R: &Const{Val: 0}}, &Cmp{Op: LT, L: NewCol("b"), R: &Const{Val: 0}}}}, 1},
		{&Logic{Op: Or, Args: []Expr{&Cmp{Op: LT, L: NewCol("a"), R: &Const{Val: 0}}, &Cmp{Op: LT, L: NewCol("b"), R: &Const{Val: 0}}}}, 1},
		{&Logic{Op: Not, Args: []Expr{&Cmp{Op: LT, L: NewCol("a"), R: &Const{Val: 0}}}}, 1},
		{&Case{Whens: []CaseWhen{{Cond: &Cmp{Op: GT, L: NewCol("a"), R: &Const{Val: 0}}, Then: NewCol("b")}}, Else: &Const{Val: 99}}, -3},
		{&Case{Whens: []CaseWhen{{Cond: &Cmp{Op: LT, L: NewCol("a"), R: &Const{Val: 0}}, Then: NewCol("b")}}, Else: &Const{Val: 99}}, 99},
		{&Case{Whens: []CaseWhen{{Cond: &Cmp{Op: LT, L: NewCol("a"), R: &Const{Val: 0}}, Then: NewCol("b")}}}, 0},
	}
	for _, c := range cases {
		if err := Bind(c.e, s); err != nil {
			t.Fatalf("Bind(%s): %v", c.e, err)
		}
		if got := Eval(c.e, 0, row); got != c.want {
			t.Errorf("Eval(%s) = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestBindRowErrors(t *testing.T) {
	s := testSchema()
	bad := []Expr{
		NewCol("zz"),
		&Arith{Op: Add, L: NewCol("zz"), R: NewCol("a")},
		&Arith{Op: Add, L: NewCol("a"), R: NewCol("zz")},
		&Cmp{Op: EQ, L: NewCol("a"), R: &StrConst{Val: "x"}},   // string vs int
		&Like{X: NewCol("a"), Pattern: "%"},                    // LIKE on int
		&Like{X: &Const{Val: 1}, Pattern: "%"},                 // LIKE on literal
		&In{X: NewCol("a"), List: []Expr{&StrConst{Val: "x"}}}, // string in int list
		&Between{X: NewCol("zz"), Lo: &Const{Val: 0}, Hi: &Const{Val: 1}},
		&Logic{Op: And, Args: []Expr{NewCol("zz")}},
		&Case{Whens: []CaseWhen{{Cond: NewCol("zz"), Then: &Const{Val: 1}}}},
		&Case{Whens: []CaseWhen{{Cond: &Const{Val: 1}, Then: NewCol("zz")}}},
		&StrConst{Val: "floating"}, // never compared to a string column
	}
	for _, e := range bad {
		if err := Bind(e, s); err == nil {
			t.Errorf("Bind(%s) accepted", e)
		}
	}
}

func TestBindRejectsUnresolvedStrings(t *testing.T) {
	tab := storage.MustNewTable("t", storage.Compress("a", []int64{1}, storage.LogInt))
	e := &Logic{Op: And, Args: []Expr{
		&Cmp{Op: LT, L: NewCol("a"), R: &Const{Val: 5}},
		&StrConst{Val: "dangling"},
	}}
	if err := Bind(e, Columns(tab)); err == nil {
		t.Error("dangling string literal bound")
	}
}

// An unbound leaf is a planner bug: both walkers panic, naming the column.
func TestEvalRowUnboundColumnPanics(t *testing.T) {
	for name, eval := range map[string]func(Expr){
		"scalar": func(e Expr) { Eval(e, 0, []int64{1}) },
		"tile":   func(e Expr) { NewEvaluator().EvalInt(e, Tile{N: 1, Vecs: [][]int64{{1}}}, make([]int64, 1)) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "never") {
					t.Errorf("%s walker: panic %q does not name the column", name, msg)
				}
			}()
			eval(&Arith{Op: Add, L: NewCol("never"), R: &Const{Val: 1}})
		}()
	}
}

func TestColColumnAccessor(t *testing.T) {
	tab := storage.MustNewTable("t", storage.Compress("a", []int64{1}, storage.LogInt))
	c := NewCol("a")
	if c.Column() != nil {
		t.Error("unbound column non-nil")
	}
	if err := Bind(c, Columns(tab)); err != nil {
		t.Fatal(err)
	}
	if c.Column() == nil || c.Column().Name != "a" {
		t.Error("bound column wrong")
	}
	if err := Bind(c, rowSchema{names: []string{"a"}, dicts: make([]*storage.Dict, 1)}); err != nil || c.Column() != nil {
		t.Errorf("rebound to a slot: err %v, column %v", err, c.Column())
	}
	qualified := &Col{Table: "t", Name: "a"}
	if qualified.String() != "t.a" {
		t.Errorf("qualified String = %q", qualified.String())
	}
}

func TestArithOpStrings(t *testing.T) {
	want := map[ArithOp]string{Add: "+", Sub: "-", Mul: "*", Div: "/"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d = %q", op, op.String())
		}
	}
}

// TestEvalRowTileMatchesEvalRow pins the tile walker to the scalar one over
// slot leaves at tile lengths off the unrolled kernels' strides: for every
// node type, lane i of EvalInt/EvalBool equals Eval over lane i's row.
func TestEvalRowTileMatchesEvalRow(t *testing.T) {
	s := testSchema()
	col := NewCol
	k := func(v int64) Expr { return &Const{Val: v} }
	cmp := func(op CmpOp, l, r Expr) Expr { return &Cmp{Op: op, L: l, R: r} }
	exprs := []Expr{
		col("a"), k(42),
		&Arith{Op: Add, L: col("a"), R: col("b")},
		&Arith{Op: Sub, L: col("a"), R: k(3)},
		&Arith{Op: Mul, L: &Arith{Op: Add, L: col("a"), R: k(1)}, R: col("b")},
		&Arith{Op: Div, L: col("a"), R: k(3)},
		cmp(LT, col("a"), col("b")), cmp(LE, col("a"), k(0)), cmp(GT, k(2), col("b")),
		cmp(GE, col("b"), col("a")), cmp(EQ, col("s"), &StrConst{Val: "apple"}), cmp(NE, col("a"), col("b")),
		&Between{X: col("a"), Lo: k(-5), Hi: k(5)},
		&Between{X: col("a"), Lo: col("b"), Hi: k(9)},
		&In{X: col("a"), List: []Expr{k(1), k(-2), col("b")}},
		&In{X: col("s"), List: []Expr{&StrConst{Val: "apple"}, &StrConst{Val: "cherry"}}},
		&Like{X: col("s"), Pattern: "%an%"},
		&Like{X: col("s"), Pattern: "%an%", Negate: true},
		&Logic{Op: And, Args: []Expr{cmp(GT, col("a"), k(0)), cmp(LT, col("b"), k(0)), col("a")}},
		&Logic{Op: Or, Args: []Expr{cmp(LT, col("a"), k(-7)), cmp(GT, col("b"), k(7))}},
		&Logic{Op: Not, Args: []Expr{&Logic{Op: Or, Args: []Expr{cmp(LT, col("a"), k(0)), col("b")}}}},
		&Case{Whens: []CaseWhen{
			{Cond: cmp(GT, col("a"), k(3)), Then: col("b")},
			{Cond: cmp(GT, col("a"), k(0)), Then: &Arith{Op: Mul, L: col("a"), R: k(2)}},
		}, Else: k(99)},
		&Case{Whens: []CaseWhen{{Cond: cmp(LT, col("a"), k(0)), Then: col("b")}}},
		&Arith{Op: Add, L: cmp(LT, col("a"), k(0)), R: cmp(LT, col("b"), k(0))}, // booleans as integers
	}
	r := rand.New(rand.NewSource(9))
	ev := NewEvaluator()
	for _, n := range []int{1, 63, 1023, vec.TileSize} {
		cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
		for i := 0; i < n; i++ {
			cols[0][i] = r.Int63n(21) - 10
			cols[1][i] = r.Int63n(21) - 10
			cols[2][i] = r.Int63n(3)
		}
		ints := make([]int64, vec.TileSize)
		bools := make([]byte, vec.TileSize)
		row := make([]int64, 3)
		for _, e := range exprs {
			if err := Bind(e, s); err != nil {
				t.Fatalf("Bind(%s): %v", e, err)
			}
			ev.EvalInt(e, Tile{N: n, Vecs: cols}, ints)
			ev.EvalBool(e, Tile{N: n, Vecs: cols}, bools)
			for i := 0; i < n; i++ {
				row[0], row[1], row[2] = cols[0][i], cols[1][i], cols[2][i]
				want := Eval(e, 0, row)
				if ints[i] != want {
					t.Fatalf("n=%d EvalInt(%s) lane %d = %d, want %d", n, e, i, ints[i], want)
				}
				if wb := want != 0; (bools[i] != 0) != wb || bools[i] > 1 {
					t.Fatalf("n=%d EvalBool(%s) lane %d = %d, want %t", n, e, i, bools[i], wb)
				}
			}
		}
	}
}

// A zero divisor yields 0 in both walkers: the tile walker evaluates masked
// lanes and untaken CASE arms, which must not panic, and the scalar walker
// must agree where nothing guards the divisor.
func TestEvalRowTileDivisionIsTotal(t *testing.T) {
	s := testSchema()
	guarded := &Case{
		Whens: []CaseWhen{{Cond: &Cmp{Op: NE, L: NewCol("b"), R: &Const{Val: 0}}, Then: &Arith{Op: Div, L: NewCol("a"), R: NewCol("b")}}},
		Else:  &Const{Val: -1},
	}
	if err := Bind(guarded, s); err != nil {
		t.Fatal(err)
	}
	cols := [][]int64{{9, 9, 9}, {3, 0, -3}, {0, 0, 0}}
	out := make([]int64, vec.TileSize)
	NewEvaluator().EvalInt(guarded, Tile{N: 3, Vecs: cols}, out)
	if out[0] != 3 || out[1] != -1 || out[2] != -3 {
		t.Errorf("guarded division = %v, want [3 -1 -3]", out[:3])
	}
	bare := guarded.Whens[0].Then
	NewEvaluator().EvalInt(bare, Tile{N: 3, Vecs: cols}, out)
	for i, want := range []int64{3, 0, -3} {
		if s := Eval(bare, 0, []int64{cols[0][i], cols[1][i], 0}); out[i] != want || s != want {
			t.Errorf("lane %d: 9 / %d = %d (tile), %d (scalar), want %d", i, cols[1][i], out[i], s, want)
		}
	}
}
