package micro

import "github.com/reprolab/swole/internal/vec"

// Micro Q1 (Figure 8): select sum(r_a [OP] r_b) from R
//                      where r_x < [SEL] and r_y = 1
//
// The two baselines below are the hand-specialized code their strategies'
// generators would emit, matching the loop structures of the paper's
// Figure 1. Hybrid and value masking (Figure 3) are the engine's own plans
// (internal/harness).

// Q1DataCentric is the single-loop branching implementation (Figure 1,
// data-centric): excellent locality, but the if statement precludes
// vectorization and mispredicts at intermediate selectivities.
func Q1DataCentric(d *Data, op Op, sel int) int64 {
	x, y, a, b := d.X, d.Y, d.A, d.B
	c := int8(sel)
	var sum int64
	if op == OpMul {
		for i := range x {
			if x[i] < c && y[i] == 1 {
				sum += int64(a[i]) * int64(b[i])
			}
		}
	} else {
		for i := range x {
			if x[i] < c && y[i] == 1 {
				sum += int64(a[i]) / int64(b[i])
			}
		}
	}
	return sum
}

// Q1ROF is the relaxed-operator-fusion implementation (Figure 1, ROF): a
// single full selection vector is filled across tile boundaries before the
// aggregation stage runs, so the aggregation loop (almost always) performs
// a fixed number of iterations.
func Q1ROF(d *Data, op Op, sel int) int64 {
	c := int8(sel)
	var cmp [vec.TileSize]byte
	var tmp [vec.TileSize]byte
	var idx [vec.TileSize]int32
	fill := 0
	var sum int64
	flush := func() {
		if op == OpMul {
			for j := 0; j < fill; j++ {
				i := idx[j]
				sum += int64(d.A[i]) * int64(d.B[i])
			}
		} else {
			for j := 0; j < fill; j++ {
				i := idx[j]
				sum += int64(d.A[i]) / int64(d.B[i])
			}
		}
		fill = 0
	}
	vec.Tiles(len(d.X), func(base, length int) {
		x := d.X[base : base+length]
		y := d.Y[base : base+length]
		vec.CmpConstLTU(x, c, cmp[:])
		vec.CmpConstEQU(y, 1, tmp[:])
		vec.And(cmp[:length], tmp[:length])
		consumed := 0
		for consumed < length {
			var used int
			fill, used = vec.SelFromCmpOffset(cmp[consumed:length], base+consumed, idx[:], fill)
			consumed += used
			if fill == len(idx) {
				flush()
			}
		}
	})
	flush()
	return sum
}
