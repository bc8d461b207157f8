package micro

import (
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/vec"
)

// Micro Q4 (Figure 11): select sum(r_a * r_b) from R, S
//                       where r_fk = s_pk and r_x < [SEL1] and s_x < [SEL2]
//
// No S attribute survives the join, so this is a semijoin: the existing
// strategies build a hash table of qualifying s_pk values and probe it per
// selected R tuple, as the two kernels below do; SWOLE builds a positional
// bitmap over S with a purely sequential scan and probes it through the
// foreign-key index (Section III-D), which is how every engine plan joins
// (internal/harness).

// rPrepass evaluates R's predicate r_x < SEL and r_y = 1 for one tile.
func rPrepass(d *Data, base, length, sel int, cmp, tmp []byte) {
	vec.CmpConstLTU(d.X[base:base+length], int8(sel), cmp)
	vec.CmpConstEQU(d.Y[base:base+length], 1, tmp)
	vec.And(cmp[:length], tmp[:length])
}

// Q4DataCentric builds a hash set from S with a branching scan, then
// branches per R tuple and probes on selection.
func Q4DataCentric(d *Data, sel1, sel2 int) int64 {
	set := ht.NewSetTable(d.Cfg.NS)
	c2 := int8(sel2)
	for i := range d.SX {
		if d.SX[i] < c2 {
			set.Add(int64(d.SPK[i]))
		}
	}
	c1 := int8(sel1)
	var sum int64
	for i := range d.X {
		if d.X[i] < c1 && d.Y[i] == 1 {
			if set.Contains(int64(d.FK[i])) {
				sum += int64(d.A[i]) * int64(d.B[i])
			}
		}
	}
	return sum
}

// Q4Hybrid applies the prepass to both scans and drives the hash probes
// from selection vectors.
func Q4Hybrid(d *Data, sel1, sel2 int) int64 {
	set := ht.NewSetTable(d.Cfg.NS)
	var cmp, tmp [vec.TileSize]byte
	var idx [vec.TileSize]int32
	vec.Tiles(len(d.SX), func(base, length int) {
		vec.CmpConstLTU(d.SX[base:base+length], int8(sel2), cmp[:])
		n := vec.SelFromCmpNoBranch(cmp[:length], idx[:])
		pk := d.SPK[base : base+length]
		for j := 0; j < n; j++ {
			set.Add(int64(pk[idx[j]]))
		}
	})
	var sum int64
	vec.Tiles(len(d.X), func(base, length int) {
		rPrepass(d, base, length, sel1, cmp[:], tmp[:])
		n := vec.SelFromCmpNoBranch(cmp[:length], idx[:])
		fk := d.FK[base : base+length]
		a := d.A[base : base+length]
		b := d.B[base : base+length]
		for j := 0; j < n; j++ {
			i := idx[j]
			if set.Contains(int64(fk[i])) {
				sum += int64(a[i]) * int64(b[i])
			}
		}
	})
	return sum
}
