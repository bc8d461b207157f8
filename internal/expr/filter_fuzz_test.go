package expr

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// FuzzFilter holds the one-pass filter kernel (CompileFilter, then
// vec.Filter.Eval) to the tile walker (Evaluator.EvalBool) byte for byte.
// The fuzzer's bytes are a program: an AND of one to three clauses, each a
// leaf, an OR of leaves or a NOT IN over several items, 1–6 leaves in all,
// over an int8 and an int16 column and dictionary codes at both widths.
// A leaf is a compare under any operator with the literal on either side,
// a BETWEEN (lo > hi included), an IN of one to three items, or any of them
// under NOT, against literals at and past the ends of each width, the
// fuzzer's own constant, and strings the dictionary does and does not hold.
// Half the trees go through NNF first. The kernel runs over 0 to 2,063
// lanes starting at any of 32 rows into the columns, into a mask poisoned
// past and under every lane: each lane must read what EvalBool wrote, 0 or
// 1, no byte past the lanes may change, and under 32 lanes the kernel must
// decline. The filter's name must list the generated clauses and leaves.
func FuzzFilter(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint16(32), int16(7))
	f.Add([]byte{2, 1, 3, 0, 5, 1, 2, 4, 0, 9, 3, 1}, uint8(5), uint16(1025), int16(-1))
	f.Add([]byte{1, 2, 1, 1, 0, 2, 3, 3, 6, 2, 1, 8}, uint8(31), uint16(2063), int16(math.MinInt16))
	f.Add([]byte{0, 3, 2, 7, 2, 2, 2, 1, 1, 0, 4}, uint8(1), uint16(31), int16(math.MaxInt16))
	f.Add([]byte{2, 0, 4, 5, 6, 1, 3, 5, 0, 1, 2, 3, 4, 5}, uint8(17), uint16(vec.TileSize), int16(100))
	f.Add([]byte{}, uint8(3), uint16(0), int16(0))
	f.Fuzz(func(t *testing.T, prog []byte, off uint8, n uint16, k int16) {
		if !vec.HasAVX2 {
			t.Skip("no AVX2: no filter kernel on this CPU")
		}
		o, l := int(off%32), int(n)%2064
		tab := filterTable(int64(len(prog))*31+int64(k), o+l, k)
		g := &filterGen{treeGen: treeGen{prog: prog}, k: int64(k)}
		e, name := g.tree()
		if g.nnf {
			e = NNF(e)
		}
		if err := Bind(e, Columns(tab)); err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		var flt vec.Filter
		if !CompileFilter(e, &flt) {
			t.Fatalf("%s: the kernel declined", e)
		}
		if got := flt.String(); got != name {
			t.Fatalf("%s: named %s, want %s", e, got, name)
		}
		want := make([]byte, l+32)
		for i := range want {
			want[i] = 0xaa
		}
		got := bytes.Clone(want)
		ev := NewEvaluator()
		for tb := 0; tb < l; tb += vec.TileSize {
			m := min(vec.TileSize, l-tb)
			ev.EvalBool(e, Rows(o+tb, m), want[tb:tb+m])
		}
		if ran := flt.Eval(o, l, got[:l]); ran != (l >= 32) {
			t.Fatalf("%s over %d lanes: ran %v", e, l, ran)
		} else if !ran {
			if !bytes.Equal(got, bytes.Repeat([]byte{0xaa}, l+32)) {
				t.Fatalf("%s over %d lanes: declined but wrote the mask", e, l)
			}
			return
		}
		if !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("%s, %d lanes from row %d: lane %d is %d, want %d", e, l, o, i, got[i], want[i])
		}
	})
}

// filterTable is rows rows of a8 (int8), b16 (int16), s8 (six dictionary
// words, int8 codes) and s16 (300 words, int16 codes): each width's ends,
// the values beside them and k, and small values so equalities hit.
func filterTable(seed int64, rows int, k int16) *storage.Table {
	r := rand.New(rand.NewSource(seed))
	ends := func(lo, hi int64) []int64 { return []int64{lo, lo + 1, hi - 1, hi, -1, 0, 1, int64(k)} }
	fill := func(lo, hi int64) []int64 {
		v, e := make([]int64, rows), ends(lo, hi)
		for j := range v {
			switch x := r.Intn(4); {
			case x == 0:
				v[j] = e[r.Intn(len(e))]
			default:
				v[j] = r.Int63n(hi-lo+1) + lo
			}
			v[j] = max(lo, min(hi, v[j]))
		}
		return v
	}
	a8 := &storage.Column{Name: "a8", Kind: storage.KindInt8, Log: storage.LogInt, I8: narrow[int8](fill(math.MinInt8, math.MaxInt8))}
	b16 := &storage.Column{Name: "b16", Kind: storage.KindInt16, Log: storage.LogInt, I16: narrow[int16](fill(math.MinInt16, math.MaxInt16))}
	d8 := storage.NewDict(fuzzWords)
	d16 := storage.NewDict(filterWords)
	c8, c16 := make([]int8, rows), make([]int16, rows)
	for j := range c8 {
		c8[j], c16[j] = int8(r.Intn(d8.Len())), int16(r.Intn(d16.Len()))
	}
	return storage.MustNewTable("t", a8, b16, storage.NewCodes("s8", d8, c8), storage.NewCodes("s16", d16, c16))
}

// narrow stores v at T, whatever width its values would compress to.
func narrow[T int8 | int16](v []int64) []T {
	out := make([]T, len(v))
	for i, x := range v {
		out[i] = T(x)
	}
	return out
}

// filterWords is a dictionary whose codes need int16.
var filterWords = func() []string {
	w := make([]string, 300)
	for i := range w {
		w[i] = fmt.Sprintf("w%03d", i)
	}
	return w
}()

// filterGen draws a tree the kernel covers, with the name it must get.
type filterGen struct {
	treeGen
	k      int64
	leaves int
	nnf    bool
}

func (g *filterGen) tree() (Expr, string) {
	g.nnf = g.next(2) == 1
	and := &Logic{Op: And}
	var names []string
	for c, n := 0, 1+g.next(3); c < n && g.leaves < 6; c++ {
		e, name := g.clause()
		and.Args, names = append(and.Args, e), append(names, name)
	}
	if len(and.Args) == 1 {
		return and.Args[0], "cmp(" + names[0] + ")/avx2"
	}
	return and, "cmp(" + strings.Join(names, ",") + ")/avx2"
}

// clause is a leaf, an OR of leaves or a NOT IN, and its leaves' widths as
// the name lists them.
func (g *filterGen) clause() (Expr, string) {
	switch g.next(4) {
	case 1, 2:
		or := &Logic{Op: Or}
		var names []string
		for i, n := 0, 2+g.next(2); i < n && g.leaves < 6; i++ {
			e, name := g.leaf()
			or.Args, names = append(or.Args, e), append(names, name)
		}
		if len(or.Args) == 1 {
			return or.Args[0], names[0]
		}
		return or, strings.Join(names, "|")
	case 3:
		if g.leaves <= 3 {
			x, w := g.col()
			in := &In{X: x}
			for i, n := 0, 2+g.next(2); i < n; i++ {
				in.List = append(in.List, g.lit(x))
				g.leaves++
			}
			return &Logic{Op: Not, Args: []Expr{in}}, strings.TrimSuffix(strings.Repeat(w+",", len(in.List)), ",")
		}
	}
	return g.leaf()
}

// leaf is a compare, BETWEEN or IN, possibly under NOT, and its width, once
// per item of an IN.
func (g *filterGen) leaf() (Expr, string) {
	x, w := g.col()
	var e Expr
	name := w
	g.leaves++
	switch g.next(3) {
	case 0:
		c := &Cmp{Op: CmpOp(g.next(6)), L: x, R: g.lit(x)}
		if g.next(2) == 1 {
			c.L, c.R = c.R, c.L
		}
		e = c
	case 1:
		if _, isStr := g.lit(x).(*StrConst); isStr { // BETWEEN takes no strings
			e = &Cmp{Op: CmpOp(g.next(6)), L: x, R: g.lit(x)}
			break
		}
		e = &Between{X: x, Lo: g.intLit(), Hi: g.intLit()}
	default:
		in := &In{X: x, List: []Expr{g.lit(x)}}
		for g.next(2) == 1 && len(in.List) < 3 && g.leaves < 6 {
			in.List = append(in.List, g.lit(x))
			name += "|" + w
			g.leaves++
		}
		e = in
		if len(in.List) > 1 {
			return e, name // NOT over several items is a conjunction
		}
	}
	if g.next(3) == 0 {
		e = &Logic{Op: Not, Args: []Expr{e}}
	}
	return e, name
}

func (g *filterGen) col() (*Col, string) {
	i := g.next(4)
	return NewCol([]string{"a8", "b16", "s8", "s16"}[i]), []string{"i8", "i16", "i8", "i16"}[i]
}

// lit is a literal for x: for a dictionary column half the time a string,
// held by the dictionary or not.
func (g *filterGen) lit(x *Col) Expr {
	if x.Name[0] == 's' && g.next(2) == 1 {
		words := append([]string{"", "absent", "zzz"}, fuzzWords...)
		if x.Name == "s16" {
			words = append(words, filterWords[0], filterWords[150], filterWords[299])
		}
		return &StrConst{Val: words[g.next(len(words))]}
	}
	return g.intLit()
}

// intLit is an integer literal: the ends of both widths and beside them,
// past them, the extremes of int64, small values and the fuzzer's k.
func (g *filterGen) intLit() *Const {
	vals := []int64{
		math.MinInt8 - 1, math.MinInt8, math.MinInt8 + 1, math.MaxInt8 - 1, math.MaxInt8, math.MaxInt8 + 1,
		math.MinInt16 - 1, math.MinInt16, math.MinInt16 + 1, math.MaxInt16 - 1, math.MaxInt16, math.MaxInt16 + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64,
		-40000, -500, 300, 1000, -5, -1, 0, 1, 2, 5, g.k, g.k + 1, g.k - 1,
	}
	return &Const{Val: vals[g.next(len(vals))]}
}
