package expr

import (
	"math/rand"
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// TestEvalRowTileMatchesEvalRow pins the tile evaluators to their scalar
// reference: for every node type, lane i of EvalRowInt/EvalRowBool equals
// EvalRow over lane i's row.
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
			if err := BindRow(e, s); err != nil {
				t.Fatalf("BindRow(%s): %v", e, err)
			}
			ev.EvalRowInt(e, cols, n, ints)
			ev.EvalRowBool(e, cols, n, bools)
			for i := 0; i < n; i++ {
				row[0], row[1], row[2] = cols[0][i], cols[1][i], cols[2][i]
				want := EvalRow(e, row)
				if ints[i] != want {
					t.Fatalf("n=%d EvalRowInt(%s) lane %d = %d, want %d", n, e, i, ints[i], want)
				}
				if wb := want != 0; (bools[i] != 0) != wb || bools[i] > 1 {
					t.Fatalf("n=%d EvalRowBool(%s) lane %d = %d, want %t", n, e, i, bools[i], wb)
				}
			}
		}
	}
}

// A zero divisor yields 0 in the tile form (EvalRow faults instead): masked
// lanes and untaken CASE arms are still evaluated and must not panic.
func TestEvalRowTileDivisionIsTotal(t *testing.T) {
	s := testSchema()
	guarded := &Case{
		Whens: []CaseWhen{{Cond: &Cmp{Op: NE, L: NewCol("b"), R: &Const{Val: 0}}, Then: &Arith{Op: Div, L: NewCol("a"), R: NewCol("b")}}},
		Else:  &Const{Val: -1},
	}
	if err := BindRow(guarded, s); err != nil {
		t.Fatal(err)
	}
	cols := [][]int64{{9, 9, 9}, {3, 0, -3}, {0, 0, 0}}
	out := make([]int64, vec.TileSize)
	NewEvaluator().EvalRowInt(guarded, cols, 3, out)
	if out[0] != 3 || out[1] != -1 || out[2] != -3 {
		t.Errorf("guarded division = %v, want [3 -1 -3]", out[:3])
	}
}
