package vec

import "math"

// Value masking in one loop (paper Fig. 3): SumFusedI8 computes a lane's
// comparison and folds its masked value in the same pass, where the mask
// path writes a byte mask per tile (CmpRangeU, And) and reads it back
// (CountOnes, SumMaskedU, SumProdMaskedU). The loop is AVX2 assembly
// (fused_amd64.s): int8 lanes widen to int16, pass one or two range leaves
// (CmpRange, clamped to int8 as a Filter's leaves are), and multiply and
// pair-sum with VPMADDWD into int32 lane sums, 16 lanes a step. An int8
// product fits int16 and a tile's pair sums fit int32, so the stored widths
// alone keep the sums exact. HasAVX2 reports whether this CPU runs it; no
// build without it (other architectures, or the purego tag) has a kernel, and
// callers keep to the mask path there.

// onesI8 is the second factor of a sum over one column.
var onesI8 = func() (o [TileSize]int8) {
	for i := range o {
		o[i] = 1
	}
	return o
}()

// SumFusedI8 returns the number of lanes i < len(cx.I8) where cx.I8[i]
// passes cx and cy.I8[i] passes cy, and the sum over those lanes of a[i]*b[i]
// — of a[i] when b is nil, 0 when a is nil. Each compare is a range leaf
// (CmpRange) over int8 lanes, clamped to int8 as a Filter's leaf is; a nil
// cy.I8 is no second compare. cy.I8, a and b, where given, hold at least
// len(cx.I8) lanes. It needs HasAVX2.
func SumFusedI8(cx, cy FilterLeaf, a, b []int8) (count, sum int64) {
	x, y := cx.I8, cy.I8
	if y == nil {
		y, cy = x, FilterLeaf{Lo: math.MinInt64, Hi: math.MaxInt64}
	}
	lane := a != nil
	if !lane {
		a = x // summed and dropped
	}
	var k [6]int16
	for i, c := range [2]FilterLeaf{cx, cy} {
		lo, hi, not := clampRange[int8](c.Lo, c.Hi, c.Not)
		k[3*i], k[3*i+1], k[3*i+2] = int16(lo), int16(hi), -int16(b2i(not))
	}
	for i := 0; i < len(x); i += TileSize {
		j := min(i+TileSize, len(x))
		bt := onesI8[:j-i]
		if b != nil {
			bt = b[i:j]
		}
		c, s := fusedTile(x[i:j], y[i:j], a[i:j], bt, &k)
		count, sum = count+c, sum+s
	}
	if !lane {
		sum = 0
	}
	return count, sum
}

// fusedTile runs the kernel over at most TileSize lanes, whose int32 lane
// sums cannot overflow. The kernel's last step ends at the last lane and
// reads the 16 before it, so a tile of fewer than 16 lanes is copied behind
// 16 bytes of padding first.
func fusedTile(x, y, a, b []int8, k *[6]int16) (count, sum int64) {
	n := len(x)
	if n >= 16 {
		return fusedI8(&x[0], &y[0], &a[0], &b[0], n, k)
	}
	if n == 0 {
		return 0, 0
	}
	var pad [4][32]int8
	copy(pad[0][16:], x)
	copy(pad[1][16:], y[:n])
	copy(pad[2][16:], a[:n])
	copy(pad[3][16:], b[:n])
	return fusedI8(&pad[0][16], &pad[1][16], &pad[2][16], &pad[3][16], n, k)
}
