package swole

import (
	"math/rand"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// Disjunction evaluation benchmarks (DESIGN.md §7): the in-tile
// evaluation the engine runs — terms ORed into the tile's byte mask,
// stopping at a saturated tile — against the naive row-at-a-time
// interpreted loop. The corpus is a three-term OR at ~10% combined
// selectivity (each term ~3.5%).

const disjRows = 1 << 20

// disjFixture is the shared benchmark input: three uniform int columns
// and the three-term disjunction over them.
type disjFixture struct {
	tab     *storage.Table
	orTree  expr.Expr // bound to the columns (the tile walker)
	rowTree expr.Expr // bound to row positions (the scalar walker)
	want    int       // matching rows, for cross-checking the variants
}

// disjRowSchema resolves the column names to positions in the widened
// row buffer the naive loop carries.
type disjRowSchema struct{}

func (disjRowSchema) Leaf(name string) (expr.Leaf, error) {
	if len(name) == 1 && name[0] >= 'a' && name[0] <= 'c' {
		return expr.Leaf{Slot: int(name[0] - 'a')}, nil
	}
	return expr.Leaf{}, expr.NoColumn(name)
}

func newDisjFixture(tb testing.TB) *disjFixture {
	tb.Helper()
	r := rand.New(rand.NewSource(99))
	mk := func(name string) *storage.Column {
		v := make([]int64, disjRows)
		for i := range v {
			v[i] = r.Int63n(1000)
		}
		return storage.NewInt64(name, v, storage.LogInt)
	}
	f := &disjFixture{tab: storage.MustNewTable("t", mk("a"), mk("b"), mk("c"))}
	// Each term passes ~3.5% of rows; the union is ~10%.
	tree := func() expr.Expr {
		return &expr.Logic{Op: expr.Or, Args: []expr.Expr{
			&expr.Cmp{Op: expr.LT, L: expr.NewCol("a"), R: &expr.Const{Val: 35}},
			&expr.Cmp{Op: expr.LT, L: expr.NewCol("b"), R: &expr.Const{Val: 35}},
			&expr.Cmp{Op: expr.LT, L: expr.NewCol("c"), R: &expr.Const{Val: 35}},
		}}
	}
	f.orTree = tree()
	if err := expr.Bind(f.orTree, expr.Columns(f.tab)); err != nil {
		tb.Fatal(err)
	}
	f.rowTree = tree()
	if err := expr.Bind(f.rowTree, disjRowSchema{}); err != nil {
		tb.Fatal(err)
	}
	f.want = f.countRowNaive()
	return f
}

// countRowNaive is the interpreted baseline: widen each row into a
// buffer and evaluate the OR tree tuple at a time, short-circuiting on
// the first accepting term — exactly what a volcano-style filter does.
func (f *disjFixture) countRowNaive() int {
	a, b, c := f.tab.Columns[0], f.tab.Columns[1], f.tab.Columns[2]
	row := make([]int64, 3)
	count := 0
	for i := 0; i < disjRows; i++ {
		row[0], row[1], row[2] = a.Get(i), b.Get(i), c.Get(i)
		if expr.Eval(f.rowTree, 0, row) != 0 {
			count++
		}
	}
	return count
}

// countFused evaluates the OR tree per tile with branchless byte-mask
// combination, as the engine does.
func (f *disjFixture) countFused(ev *expr.Evaluator, cmp []byte) int {
	count := 0
	for base := 0; base < disjRows; base += vec.TileSize {
		n := disjRows - base
		if n > vec.TileSize {
			n = vec.TileSize
		}
		ev.EvalBool(f.orTree, expr.Rows(base, n), cmp[:n])
		count += vec.CountOnes(cmp[:n])
	}
	return count
}

// BenchmarkDisjunctionRowNaive is the interpreted tuple-at-a-time
// baseline.
func BenchmarkDisjunctionRowNaive(b *testing.B) {
	f := newDisjFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := f.countRowNaive(); got != f.want {
			b.Fatalf("row-naive count %d, want %d", got, f.want)
		}
	}
}

// BenchmarkDisjunctionFused is the engine's in-tile evaluation.
func BenchmarkDisjunctionFused(b *testing.B) {
	f := newDisjFixture(b)
	ev := expr.NewEvaluator()
	cmp := make([]byte, vec.TileSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := f.countFused(ev, cmp); got != f.want {
			b.Fatalf("fused count %d, want %d", got, f.want)
		}
	}
}
