package expr

import (
	"math/rand"
	"testing"

	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// FuzzEvalParity: the tile walker equals the scalar walker on every lane.
// The fuzzer's bytes are a program: the first pick the tile's length (0, 1,
// 63, 64, 65 or vec.TileSize), its base row and which columns are bound to
// storage and which to slots; the rest drive a recursive-descent generator
// over every node kind — division by columns and by zero literals, IN with
// column and arithmetic items, nested CASE, NOT/OR/AND, LIKE, string
// compares — over one column of every storage width plus a dictionary
// column. The tree is bound three times (every leaf a column, every leaf a
// slot, the fuzzer's mix) and under each binding lane i of EvalInt equals
// Eval over row i, and EvalBool emits exactly 0 or 1 and agrees on truth
// (TestMaskProducersEmitZeroOne's contract).

var fuzzLens = []int{0, 1, 63, 64, 65, vec.TileSize}

// fuzzWords are the dictionary; fuzzStrs adds literals no row holds.
var (
	fuzzWords = []string{"air", "fob", "mail", "rail", "ship", "truck"}
	fuzzStrs  = append(append([]string(nil), fuzzWords...), "absent", "")
)

// fuzzTable is rows rows of i8, i16, i32, i64 and s, drawn from seed: small
// values so equalities and IN hit, zeros so divisors do, and each width's
// extremes so compares at native width meet them.
func fuzzTable(seed int64, rows int) *storage.Table {
	r := rand.New(rand.NewSource(seed))
	var cols []*storage.Column
	for i, span := range []int64{1 << 7, 1 << 15, 1 << 31, 1 << 62} {
		v := make([]int64, rows)
		for j := range v {
			switch r.Intn(8) {
			case 0:
				v[j] = -span
			case 1:
				v[j] = span - 1
			case 2, 3:
				v[j] = 0
			default:
				v[j] = r.Int63n(9) - 4
			}
		}
		if rows >= 2 {
			v[0], v[1] = -span, span-1 // pin the width
		}
		cols = append(cols, storage.Compress([]string{"i8", "i16", "i32", "i64"}[i], v, storage.LogInt))
	}
	s := make([]string, rows)
	for j := range s {
		s[j] = fuzzWords[r.Intn(len(fuzzWords))]
	}
	return storage.MustNewTable("t", append(cols, storage.NewStrings("s", s))...)
}

// treeGen turns the fuzzer's bytes into an expression; an exhausted program
// reads zeros, which pick leaves, so every tree is finite.
type treeGen struct {
	prog []byte
	at   int
}

func (g *treeGen) next(n int) int {
	if g.at >= len(g.prog) {
		return 0
	}
	g.at++
	return int(g.prog[g.at-1]) % n
}

func (g *treeGen) intCol() *Col { return NewCol([]string{"i8", "i16", "i32", "i64"}[g.next(4)]) }

func (g *treeGen) lit() *Const { return &Const{Val: int64(g.next(12)) - 4} } // -4..7, zero included

func (g *treeGen) str() *StrConst { return &StrConst{Val: fuzzStrs[g.next(len(fuzzStrs))]} }

func (g *treeGen) intExpr(depth int) Expr {
	if depth <= 0 {
		if g.next(2) == 0 {
			return g.intCol()
		}
		return g.lit()
	}
	switch g.next(8) {
	case 0:
		return g.intCol()
	case 1:
		return g.lit()
	case 2, 3:
		return &Arith{Op: ArithOp(g.next(4)), L: g.intExpr(depth - 1), R: g.intExpr(depth - 1)}
	case 4: // a quotient, whose divisor is a column or the zero literal half the time
		div := &Arith{Op: Div, L: g.intExpr(depth - 1)}
		switch g.next(4) {
		case 0:
			div.R = g.intCol()
		case 1:
			div.R = &Const{}
		default:
			div.R = g.intExpr(depth - 1)
		}
		return div
	case 5, 6:
		c := &Case{}
		for n := 1 + g.next(3); n > 0; n-- {
			c.Whens = append(c.Whens, CaseWhen{Cond: g.boolExpr(depth - 1), Then: g.intExpr(depth - 1)})
		}
		if g.next(2) == 0 {
			c.Else = g.intExpr(depth - 1)
		}
		return c
	}
	return g.boolExpr(depth - 1) // a boolean used as an integer
}

func (g *treeGen) boolExpr(depth int) Expr {
	if depth <= 0 {
		return &Cmp{Op: CmpOp(g.next(6)), L: g.intCol(), R: g.lit()}
	}
	switch g.next(12) {
	case 0:
		return &Cmp{Op: CmpOp(g.next(6)), L: g.intCol(), R: g.lit()}
	case 1:
		return &Cmp{Op: CmpOp(g.next(6)), L: g.lit(), R: g.intExpr(depth - 1)}
	case 2:
		return &Cmp{Op: CmpOp(g.next(6)), L: g.intExpr(depth - 1), R: g.intExpr(depth - 1)}
	case 3:
		if g.next(2) == 0 {
			return &Cmp{Op: CmpOp(g.next(6)), L: g.str(), R: NewCol("s")}
		}
		return &Cmp{Op: CmpOp(g.next(6)), L: NewCol("s"), R: g.str()}
	case 4:
		return &Between{X: g.intExpr(depth - 1), Lo: g.intExpr(depth - 1), Hi: g.intExpr(depth - 1)}
	case 5:
		return &Between{X: g.intCol(), Lo: g.lit(), Hi: g.lit()}
	case 6:
		in := &In{X: g.intExpr(depth - 1)}
		for n := 1 + g.next(3); n > 0; n-- {
			in.List = append(in.List, g.intExpr(depth-1))
		}
		return in
	case 7:
		in := &In{X: NewCol("s")}
		for n := 1 + g.next(3); n > 0; n-- {
			in.List = append(in.List, g.str())
		}
		return in
	case 8:
		pat := []string{"%", "%ai%", "_ail", "s%", "", "%k"}[g.next(6)]
		return &Like{X: NewCol("s"), Pattern: pat, Negate: g.next(2) == 1}
	case 9:
		return &Logic{Op: Not, Args: []Expr{g.boolExpr(depth - 1)}}
	case 10:
		l := &Logic{Op: LogicOp(g.next(2))}
		for n := 2 + g.next(2); n > 0; n-- {
			l.Args = append(l.Args, g.boolExpr(depth-1))
		}
		return l
	}
	return g.intExpr(depth - 1) // an integer used as a predicate
}

// mixedSource binds the columns whose bit is set in slots to their slot and
// the rest to storage.
type mixedSource struct {
	tab   *storage.Table
	slots int
}

func (m mixedSource) Leaf(name string) (Leaf, error) {
	for i, c := range m.tab.Columns {
		if c.Name == name && m.slots>>i&1 == 1 {
			return Leaf{Slot: i, Dict: c.Dict}, nil
		}
	}
	return Columns(m.tab).Leaf(name)
}

func FuzzEvalParity(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{5, 0, 0, 2, 0, 1},
		{1, 1, 31, 10, 1, 3, 0, 2, 6, 2, 1, 4, 0, 1, 3},    // OR of a string compare and an IN
		{2, 2, 5, 2, 4, 4, 0, 1, 0, 1, 2, 4, 1, 2},         // quotients by a column and by the zero literal
		{3, 3, 21, 2, 5, 2, 0, 0, 5, 2, 4, 0, 0, 1, 0, 7},  // CASE over a division
		{4, 1, 10, 6, 6, 4, 1, 2, 2, 0, 1, 1, 3, 0},        // IN with column and arithmetic items
		{5, 0, 17, 9, 10, 1, 8, 1, 1, 4, 0, 0, 1, 1, 2, 5}, // NOT over AND of LIKE and BETWEEN
		{0, 2, 7, 11, 2, 4, 0, 0, 1},                       // the empty tile
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		g := &treeGen{prog: prog}
		n, base, mix := fuzzLens[g.next(len(fuzzLens))], []int{0, 1, 64, 1000}[g.next(4)], g.next(32)
		var e Expr
		if g.next(2) == 0 {
			e = g.boolExpr(4)
		} else {
			e = g.intExpr(4)
		}
		tab := fuzzTable(int64(len(prog))*131+int64(n), base+n)
		vecs := make([][]int64, len(tab.Columns))
		for c, col := range tab.Columns {
			vecs[c] = make([]int64, vec.TileSize)
			col.WidenInto(base, n, vecs[c])
		}
		tile := Tile{Base: base, N: n, Vecs: vecs}
		ev := NewEvaluator()
		ints, mask, row := make([]int64, vec.TileSize), make([]byte, vec.TileSize), make([]int64, len(vecs))
		var first []int64
		for _, b := range []struct {
			name string
			src  Source
		}{{"columns", Columns(tab)}, {"slots", schemaOf(tab)}, {"mixed", mixedSource{tab, mix}}} {
			if err := Bind(e, b.src); err != nil {
				t.Fatalf("Bind(%s) to %s: %v", e, b.name, err)
			}
			ev.EvalInt(e, tile, ints)
			ev.EvalBool(e, tile, poison(mask))
			want := make([]int64, n)
			for i := range want {
				for c := range vecs {
					row[c] = vecs[c][i]
				}
				want[i] = Eval(e, base+i, row)
				if ints[i] != want[i] {
					t.Fatalf("%s bound to %s, n=%d base=%d: EvalInt lane %d = %d, scalar %d", e, b.name, n, base, i, ints[i], want[i])
				}
				if mask[i] > 1 || (mask[i] == 1) != (want[i] != 0) {
					t.Fatalf("%s bound to %s, n=%d base=%d: EvalBool lane %d = %d, scalar %d", e, b.name, n, base, i, mask[i], want[i])
				}
			}
			if first == nil {
				first = want
			}
			for i := range want {
				if want[i] != first[i] {
					t.Fatalf("%s: row %d is %d bound to %s, %d bound to columns", e, base+i, want[i], b.name, first[i])
				}
			}
		}
	})
}
