package micro

import "github.com/reprolab/swole/internal/vec"

// Micro Q3 (Figure 10): select sum(r_x * [COL]) from R
//                       where r_x < [SEL] and r_y = 1
//
// r_x appears in both the predicate and the aggregation; with COL = r_y
// both predicate attributes are reused. Access merging (Section III-C)
// fuses the predicate with the reuse so each attribute is read once. The
// engine runs hybrid and value masking (internal/harness) but does not yet
// merge a filter's read with an aggregate's, so access merging stays
// hand-written beside the data-centric baseline.

// Q3DataCentric branches per tuple; selected tuples re-read r_x (and the
// chosen column) conditionally.
func Q3DataCentric(d *Data, col Col, sel int) int64 {
	c := int8(sel)
	var sum int64
	if col == ColA {
		for i := range d.X {
			if d.X[i] < c && d.Y[i] == 1 {
				sum += int64(d.X[i]) * int64(d.A[i])
			}
		}
	} else {
		for i := range d.X {
			if d.X[i] < c && d.Y[i] == 1 {
				sum += int64(d.X[i]) * int64(d.Y[i])
			}
		}
	}
	return sum
}

// Q3AccessMerging fuses the predicate into the reused attribute's read
// (Figure 5, bottom): tmp[j] = x[j] * (x[j] < SEL [&& y[j] = 1]), so each
// attribute is accessed exactly once. With COL = r_y, the y comparison is
// likewise fused into y's single read as y*(y==1).
func Q3AccessMerging(d *Data, col Col, sel int) int64 {
	c := int8(sel)
	var tmp [vec.TileSize]int64
	var sum int64
	if col == ColA {
		// Fuse pred(x) into x's read; y's conjunct is a separate
		// sequential pass that scales tmp by (y == 1).
		vec.Tiles(len(d.X), func(base, length int) {
			x := d.X[base : base+length]
			y := d.Y[base : base+length]
			a := d.A[base : base+length]
			for j := 0; j < length; j++ {
				m := int64(b2i(x[j] < c))
				tmp[j] = int64(x[j]) * m * int64(b2i(y[j] == 1))
			}
			sum += vec.SumProdTmp(a, tmp[:length])
		})
		return sum
	}
	// COL = r_y: both reused attributes carry their own predicate.
	vec.Tiles(len(d.X), func(base, length int) {
		x := d.X[base : base+length]
		y := d.Y[base : base+length]
		for j := 0; j < length; j++ {
			xv := int64(x[j]) * int64(b2i(x[j] < c))
			yv := int64(y[j]) * int64(b2i(y[j] == 1))
			sum += xv * yv
		}
	})
	return sum
}

func b2i(b bool) byte {
	var v byte
	if b {
		v = 1
	}
	return v
}
