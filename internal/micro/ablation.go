package micro

import "github.com/reprolab/swole/internal/vec"

// This file holds ablation variants of the SWOLE kernels, isolating the
// design choices DESIGN.md calls out. They are exercised by the ablation
// benchmarks in bench_test.go and verified against the primary kernels.

// Q1HybridBranching is micro Q1 under hybrid with the *branching*
// selection-vector construction instead of the predicated no-branch form —
// the Ross (PODS 2002) tradeoff the paper cites: branching wins at extreme
// selectivities, no-branch at intermediate ones.
func Q1HybridBranching(d *Data, op Op, sel int) int64 {
	c := int8(sel)
	var cmp [vec.TileSize]byte
	var tmp [vec.TileSize]byte
	var idx [vec.TileSize]int32
	var sum int64
	vec.Tiles(len(d.X), func(base, length int) {
		x := d.X[base : base+length]
		y := d.Y[base : base+length]
		a := d.A[base : base+length]
		b := d.B[base : base+length]
		vec.CmpConstLT(x, c, cmp[:])
		vec.CmpConstEQ(y, 1, tmp[:])
		vec.And(cmp[:length], tmp[:length])
		n := vec.SelFromCmpBranch(cmp[:length], idx[:])
		if op == OpMul {
			sum += vec.SumProdSel(a, b, idx[:], n)
		} else {
			sum += vec.SumQuotSel(a, b, idx[:], n)
		}
	})
	return sum
}

// Q2ValueMaskingNoFlags is value-masking group-by WITHOUT the validity
// bookkeeping the paper requires ("We must also perform an extra
// bookkeeping step by setting a flag during insertion"). It is
// intentionally wrong — phantom groups appear whenever the predicate
// rejects every tuple of a key — and exists so tests can demonstrate the
// flag's necessity and benchmarks can price it.
func Q2ValueMaskingNoFlags(d *Data, sel int) map[int64]int64 {
	out := make(map[int64]int64, d.Cfg.CCard)
	var cmp, tmp [vec.TileSize]byte
	vec.Tiles(len(d.X), func(base, length int) {
		q2Prepass(d, base, length, sel, cmp[:], tmp[:])
		a := d.A[base : base+length]
		b := d.B[base : base+length]
		cc := d.C[base : base+length]
		for j := 0; j < length; j++ {
			out[int64(cc[j])] += int64(a[j]) * int64(b[j]) * int64(cmp[j])
		}
	})
	return out
}

// Q5EagerNoDelete is eager aggregation WITHOUT the deletion pass — it
// returns the unconditional per-key aggregates before the inverted
// predicate removes non-qualifying groups. Used to price the deletion
// term of the Section III-E cost model.
func Q5EagerNoDelete(d *Data) map[int64]int64 {
	out := make(map[int64]int64, d.Cfg.NS)
	vec.Tiles(len(d.FK), func(base, length int) {
		fk := d.FK[base : base+length]
		a := d.A[base : base+length]
		b := d.B[base : base+length]
		for j := 0; j < length; j++ {
			out[int64(fk[j])] += int64(a[j]) * int64(b[j])
		}
	})
	return out
}
