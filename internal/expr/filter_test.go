package expr

import (
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// TestCompileFilterCovers lists what the one-pass kernel takes, with the
// name it gets, and what it leaves to the tile walker: a compare of two
// columns, arithmetic, LIKE, an int32 or int64 column, a column-valued IN or
// BETWEEN bound, a bare column, an OR over an AND and a NOT IN of several
// items inside an OR. On a build without the kernel it takes nothing.
func TestCompileFilterCovers(t *testing.T) {
	tab := fuzzTable(1, 100)
	c := func(name string) *Col { return NewCol(name) }
	k := func(v int64) *Const { return &Const{Val: v} }
	cmp := func(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }
	and := func(a ...Expr) *Logic { return &Logic{Op: And, Args: a} }
	or := func(a ...Expr) *Logic { return &Logic{Op: Or, Args: a} }
	not := func(a Expr) *Logic { return &Logic{Op: Not, Args: []Expr{a}} }
	for _, tc := range []struct {
		e    Expr
		name string // "" where the kernel declines
	}{
		{cmp(LT, c("i8"), k(5)), "cmp(i8)/avx2"},
		{cmp(GE, k(300), c("i8")), "cmp(i8)/avx2"},
		{and(cmp(GT, c("i8"), k(25)), cmp(GE, c("i16"), k(-40000))), "cmp(i8,i16)/avx2"},
		{or(cmp(LT, c("i8"), k(5)), cmp(GT, c("i8"), k(8)), cmp(LT, c("i16"), k(0))), "cmp(i8|i8|i16)/avx2"},
		{and(not(&Between{X: c("i8"), Lo: k(10), Hi: k(40)}), cmp(LT, c("i8"), k(5))), "cmp(i8,i8)/avx2"},
		{&In{X: c("i16"), List: []Expr{k(1), k(2), k(3)}}, "cmp(i16|i16|i16)/avx2"},
		{and(not(&In{X: c("i8"), List: []Expr{k(1), k(2)}}), cmp(EQ, c("i16"), k(3))), "cmp(i8,i8,i16)/avx2"},
		{or(not(&In{X: c("i8"), List: []Expr{k(1)}}), cmp(EQ, c("s"), &StrConst{Val: "mail"})), "cmp(i8|i8)/avx2"},
		{or(and(cmp(LT, c("i8"), k(1)), cmp(GT, c("i16"), k(2))), cmp(EQ, c("i8"), k(3))), ""},
		{or(not(&In{X: c("i8"), List: []Expr{k(1), k(2)}}), cmp(EQ, c("i16"), k(3))), ""},
		{cmp(LT, c("i8"), c("i16")), ""},
		{cmp(LT, &Arith{Op: Add, L: c("i8"), R: k(1)}, k(5)), ""},
		{cmp(LT, c("i32"), k(5)), ""},
		{and(cmp(LT, c("i8"), k(5)), cmp(LT, c("i64"), k(5))), ""},
		{&Like{X: c("s"), Pattern: "m%"}, ""},
		{&In{X: c("i8"), List: []Expr{c("i16"), k(3)}}, ""},
		{&Between{X: c("i8"), Lo: c("i16"), Hi: k(3)}, ""},
		{c("i8"), ""},
	} {
		if err := Bind(tc.e, Columns(tab)); err != nil {
			t.Fatalf("%s: %v", tc.e, err)
		}
		var f vec.Filter
		ok := CompileFilter(tc.e, &f)
		if want := tc.name != "" && vec.HasAVX2; ok != want {
			t.Errorf("%s: compiled %v, want %v", tc.e, ok, want)
		} else if ok && f.String() != tc.name {
			t.Errorf("%s: named %s, want %s", tc.e, f.String(), tc.name)
		}
	}
}
