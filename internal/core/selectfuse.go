package core

import (
	"slices"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
)

// fusedFold is the fold of a grouped statement under masking whose lanes ht
// fuses — one, two or three sums or averages, or a min and a max over one
// operand — each over a bare root column: one loop a tile packs the keys,
// resolves the slots and folds the record, reading every column at its
// stored width. keys, when set, are one or two root columns of one width that
// a key-addressed table reads in place as keys[0]·mul + keys[1] + add.
type fusedFold struct {
	keys           []*storage.Column
	mul, add       int64
	args           []*storage.Column // by lane; for minmax the min's first
	minmax, hashed bool
	keyMask        bool // key masking on a key-addressed table
	pairs          bool // the unmasked pair fold (PreparedSelect.pairFold)
	run            func(f *fusedFold, tab *ht.AggTable, base int, keys []int64, slots []int32, cmp []byte)
}

// fuseBytes bounds the group table a fold fuses into: a key-addressed table's
// record array, or the compile's estimate of a hashed one. Over it the
// records fall out of cache, and the fused loop measured no faster than the
// lane passes for one sum and slower for two or three lanes, in the kernel
// rows and in BenchmarkSteadyFootprint (EXPERIMENTS.md, "Classic shapes at
// stored width").
const fuseBytes = 1 << 20

// fuseFold returns the statement's fused fold, its kernel instantiated at its
// columns' widths, or nil when its lanes, their arguments, its technique or
// its table's footprint have none (hybrid lanes are gathered; a one-sum record
// fuses only on a key-addressed table). A min and max trade lanes: min first.
func (c *selectCompile) fuseFold() *fusedFold {
	p := c.p
	if len(c.q.GroupBy) == 0 || c.lanes < 1 || c.lanes > 3 || p.tech != TechValueMasking && p.tech != TechKeyMasking ||
		c.htBytes > fuseBytes || c.lanes == 1 && p.ex.DenseDomain == 0 {
		return nil
	}
	var cols [3]*storage.Column // by lane; nothing is allocated for a statement without a fused fold
	lanes := make([]*selAgg, 0, 3)
	for i := range p.aggs {
		col, ok := c.q.Aggs[i].Arg.(*expr.Col)
		switch a := &p.aggs[i]; {
		case a.lane < 0:
		case !ok || p.root.Column(col.Name) == nil:
			return nil
		default:
			cols[a.lane], lanes = p.root.Column(col.Name), append(lanes, a)
		}
	}
	minmax := len(lanes) == 2 && min(lanes[0].kind, lanes[1].kind) == AggMin && max(lanes[0].kind, lanes[1].kind) == AggMax && cols[0] == cols[1]
	if !minmax && slices.ContainsFunc(lanes, func(a *selAgg) bool { return a.kind != AggSum && a.kind != AggAvg }) {
		return nil
	}
	if minmax && lanes[0].kind == AggMax {
		lanes[0].lane, lanes[1].lane = lanes[1].lane, lanes[0].lane
	}
	f := &fusedFold{args: append([]*storage.Column(nil), cols[:c.lanes]...), minmax: minmax, hashed: p.ex.DenseDomain == 0, pairs: p.pairFold}
	f.keyMask = p.tech == TechKeyMasking && !f.hashed
	for _, tc := range c.keyCols {
		if f.keys = append(f.keys, tc.col); f.hashed || len(c.keyCols) > min(c.lanes, 2) || tc.src >= 0 || tc.col.Kind != c.keyCols[0].col.Kind {
			f.keys = nil // not in place
			break
		}
	}
	for i := 0; i < len(f.keys) && !p.keys.byValue; i++ { // packed keys: a lone or last place value is 1
		f.add, f.mul = f.add-p.keys.lo[i]*p.keys.mult[i], p.keys.mult[0]*int64(i)
	}
	kind := storage.KindInt64 // fill's keys
	if f.hashed {
		kind = storage.KindInt32 // the slots
	} else if f.keys != nil {
		kind = f.keys[0].Kind
	}
	byKind(kind, fuseA[int8], fuseA[int16], fuseA[int32], fuseA[int64])(f)
	return f
}

// byKind is the one of fs instantiated at a column's stored width.
func byKind[F any](k storage.Kind, fs ...F) F { return fs[k] }

// fuseA, fuseB and fuseC pick the argument widths one at a time.
func fuseA[K ht.Int](f *fusedFold) {
	byKind(f.args[0].Kind, fuseB[K, int8], fuseB[K, int16], fuseB[K, int32], fuseB[K, int64])(f)
}

func fuseB[K, A ht.Int](f *fusedFold) {
	if f.run = foldMinMax[K, A]; len(f.args) == 1 {
		f.run = foldSum1[K, A]
	} else if !f.minmax {
		byKind(f.args[1].Kind, fuseC[K, A, int8], fuseC[K, A, int16], fuseC[K, A, int32], fuseC[K, A, int64])(f)
	}
}

func fuseC[K, A, B ht.Int](f *fusedFold) {
	if f.run = foldSum2[K, A, B]; len(f.args) == 3 {
		f.run = byKind(f.args[2].Kind, foldSum3[K, A, B, int8], foldSum3[K, A, B, int16], foldSum3[K, A, B, int32], foldSum3[K, A, B, int64])
	}
}

// tileKey is the tile's keys: a hashed table's slots, fill's keys or columns.
func tileKey[K ht.Int](f *fusedFold, tab *ht.AggTable, base int, keys []int64, slots []int32, cmp []byte) ht.TileKey[K] {
	var k0, k1 []K
	switch m := len(cmp); {
	case f.hashed:
		tab.LookupTile(keys, slots)
		k1 = (*any(&slots).(*[]K))[:m]
	case f.keys == nil:
		k1 = (*any(&keys).(*[]K))[:m]
	default:
		k0, k1 = storage.Stored[K](f.keys[0], base, m), storage.Stored[K](f.keys[len(f.keys)-1], base, m)
	}
	if k0 == nil {
		k0 = k1
	}
	return ht.TileKey[K]{K0: k0, K1: k1, M0: f.mul, Add: f.add}
}

// foldSum1 reads one key column (fuseFold leaves two to fill) and passes a
// pair fold no mask.
func foldSum1[K, A ht.Int](f *fusedFold, tab *ht.AggTable, base int, keys []int64, slots []int32, cmp []byte) {
	a, k := storage.Stored[A](f.args[0], base, len(cmp)), tileKey[K](f, tab, base, keys, slots, cmp)
	if f.pairs {
		cmp = nil
	}
	ht.FoldSum1(tab, k.K1, k.Add, a, cmp, f.keyMask)
}

func foldSum2[K, A, B ht.Int](f *fusedFold, tab *ht.AggTable, base int, keys []int64, slots []int32, cmp []byte) {
	a, b := storage.Stored[A](f.args[0], base, len(cmp)), storage.Stored[B](f.args[1], base, len(cmp))
	ht.FoldSum2(tab, tileKey[K](f, tab, base, keys, slots, cmp), a, b, cmp, f.keyMask)
}

func foldSum3[K, A, B, C ht.Int](f *fusedFold, tab *ht.AggTable, base int, keys []int64, slots []int32, cmp []byte) {
	a, b, c := storage.Stored[A](f.args[0], base, len(cmp)), storage.Stored[B](f.args[1], base, len(cmp)), storage.Stored[C](f.args[2], base, len(cmp))
	ht.FoldSum3(tab, tileKey[K](f, tab, base, keys, slots, cmp), a, b, c, cmp, f.keyMask)
}

func foldMinMax[K, A ht.Int](f *fusedFold, tab *ht.AggTable, base int, keys []int64, slots []int32, cmp []byte) {
	ht.FoldMinMax(tab, tileKey[K](f, tab, base, keys, slots, cmp), storage.Stored[A](f.args[0], base, len(cmp)), cmp, f.keyMask)
}
