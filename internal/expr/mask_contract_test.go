package expr

import (
	"math/rand"
	"testing"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// TestMaskProducersEmitZeroOne pins the contract the word-at-a-time mask
// plane rests on (vec/maskops.go sums and packs eight lanes per word): every
// producer of a mask — the vec compare kernels plain and unrolled, the
// native-width column kernels, the tile walker under both bindings down to
// its "nonzero integer is true" default, and bitmap.ReadCmp — writes bytes 0
// and 1 only,
// over random columns of every physical width. The output is poisoned
// first, so a lane a producer skipped fails too.

func zeroOne(t *testing.T, who string, mask []byte) {
	t.Helper()
	for i, v := range mask {
		if v > 1 {
			t.Fatalf("%s: lane %d of %d holds %d", who, i, len(mask), v)
		}
	}
}

func poison(mask []byte) []byte {
	for i := range mask {
		mask[i] = 0xff
	}
	return mask
}

func checkCmpKernels[T vec.Number](t *testing.T, r *rand.Rand, vals []T, out []byte) {
	t.Helper()
	out = out[:len(vals)]
	c, hi := vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]
	other := make([]T, len(vals))
	for i := range other {
		other[i] = vals[r.Intn(len(vals))]
	}
	for op := vec.LT; op <= vec.NE; op++ {
		vec.CmpConst(op, vals, c, poison(out))
		zeroOne(t, "CmpConst "+op.String(), out)
		vec.CmpConstU(op, vals, c, poison(out))
		zeroOne(t, "CmpConstU "+op.String(), out)
		vec.CmpCols(op, vals, other, poison(out))
		zeroOne(t, "CmpCols "+op.String(), out)
	}
	vec.CmpConstBetween(vals, c, hi, poison(out))
	zeroOne(t, "CmpConstBetween", out)
	vec.CmpConstBetweenU(vals, c, hi, poison(out))
	zeroOne(t, "CmpConstBetweenU", out)
}

func TestMaskProducersEmitZeroOne(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	words := []string{"air", "rail", "ship", "truck", "mail"}
	out := make([]byte, vec.TileSize)
	ev := NewEvaluator()
	for _, n := range []int{1, 7, 65, vec.TileSize - 1, vec.TileSize} {
		// One column per physical width, a dictionary column, and extreme
		// values so that an arithmetic (rather than flag-setting) compare
		// would show.
		spans := map[string]int64{"i8": 1 << 7, "i16": 1 << 15, "i32": 1 << 31, "i64": 1 << 61}
		raw := map[string][]int64{}
		var cols []*storage.Column
		for _, name := range []string{"i8", "i16", "i32", "i64"} {
			v := make([]int64, n)
			for i := range v {
				switch r.Intn(8) {
				case 0:
					v[i] = -spans[name]
				case 1:
					v[i] = spans[name] - 1
				default:
					v[i] = r.Int63n(2*spans[name]) - spans[name]
				}
			}
			v[r.Intn(n)], v[r.Intn(n)] = -spans[name], spans[name]-1 // pin the width
			raw[name] = v
			cols = append(cols, storage.Compress(name, v, storage.LogInt))
		}
		s := make([]string, n)
		for i := range s {
			s[i] = words[r.Intn(len(words))]
		}
		cols = append(cols, storage.NewStrings("s", s))
		tab := storage.MustNewTable("t", cols...)
		for i, k := range []storage.Kind{storage.KindInt8, storage.KindInt16, storage.KindInt32, storage.KindInt64} {
			if cols[i].Kind != k {
				t.Fatalf("column %s compressed to kind %v", cols[i].Name, cols[i].Kind)
			}
		}

		checkCmpKernels(t, r, cols[0].I8, out)
		checkCmpKernels(t, r, cols[1].I16, out)
		checkCmpKernels(t, r, cols[2].I32, out)
		checkCmpKernels(t, r, cols[3].I64, out)
		for _, c := range cols[:4] {
			k := raw[c.Name][r.Intn(n)]
			for op := vec.LT; op <= vec.NE; op++ {
				if !c.CmpConstInto(op, k, 0, n, poison(out[:n])) {
					t.Fatalf("CmpConstInto refused an in-range literal on %s", c.Name)
				}
				zeroOne(t, "CmpConstInto "+c.Name, out[:n])
			}
			if !c.CmpBetweenInto(k, raw[c.Name][r.Intn(n)], 0, n, poison(out[:n])) {
				t.Fatalf("CmpBetweenInto refused in-range bounds on %s", c.Name)
			}
			zeroOne(t, "CmpBetweenInto "+c.Name, out[:n])
		}

		col, num := NewCol, func(v int64) Expr { return &Const{Val: v} }
		cmp := func(op CmpOp, l, r Expr) Expr { return &Cmp{Op: op, L: l, R: r} }
		var preds []Expr
		for _, name := range []string{"i8", "i16", "i32", "i64"} {
			k := raw[name][r.Intn(n)]
			preds = append(preds,
				col(name), // a bare integer as a predicate: nonzero is true
				&Arith{Op: Mul, L: col(name), R: num(3)},
				cmp(LT, col(name), num(k)), cmp(NE, num(k), col(name)),
				cmp(GE, col(name), num(1<<62)), // a literal past the narrow widths
				cmp(LE, col(name), col("i16")),
				&Between{X: col(name), Lo: num(k), Hi: num(k + 1000)},
				&Between{X: col(name), Lo: col("i8"), Hi: num(k)},
				&In{X: col(name), List: []Expr{num(k), num(0), num(-1)}},
				&Logic{Op: Not, Args: []Expr{cmp(GT, col(name), num(k))}},
				&Logic{Op: And, Args: []Expr{col(name), cmp(GT, col("i8"), num(0)), col("i32")}},
				&Logic{Op: Or, Args: []Expr{col(name), cmp(LT, col("i8"), num(-100)), col("i16")}},
				cmp(EQ, &Case{Whens: []CaseWhen{{Cond: col(name), Then: col("i8")}}, Else: num(2)}, num(2)),
			)
		}
		preds = append(preds,
			cmp(EQ, col("s"), &StrConst{Val: "rail"}),
			&In{X: col("s"), List: []Expr{&StrConst{Val: "air"}, &StrConst{Val: "absent"}}},
			&Like{X: col("s"), Pattern: "%ai%"},
			&Like{X: col("s"), Pattern: "_ail", Negate: true},
		)
		// The widened columns are the tile vectors of the slot-bound form.
		tile := make([][]int64, len(cols))
		for i, c := range cols {
			tile[i] = make([]int64, n)
			c.WidenInto(0, n, tile[i])
		}
		for _, p := range preds {
			if err := Bind(p, Columns(tab)); err != nil {
				t.Fatalf("Bind(%s): %v", p, err)
			}
			ev.EvalBool(p, Rows(0, n), poison(out[:n]))
			zeroOne(t, "EvalBool over columns "+p.String(), out[:n])
			if err := Bind(p, schemaOf(tab)); err != nil {
				t.Fatalf("Bind(%s) to slots: %v", p, err)
			}
			ev.EvalBool(p, Tile{N: n, Vecs: tile}, poison(out[:n]))
			zeroOne(t, "EvalBool over slots "+p.String(), out[:n])
		}

		// ReadCmp, at bases on and off a word boundary.
		bm := bitmap.New(3*vec.TileSize + 200)
		for i := 0; i < bm.Len(); i++ {
			if r.Intn(2) == 0 {
				bm.Set(i)
			}
		}
		for _, base := range []int{0, 1, 63, 64, vec.TileSize + 5} {
			bm.ReadCmp(base, poison(out[:n]))
			zeroOne(t, "ReadCmp", out[:n])
		}
	}
}
