package vec

import "math"

// Value masking in one loop (paper Fig. 3): SumFusedI8 computes a lane's
// comparison and folds its masked value in the same pass, where the mask
// path writes a byte mask per tile (CmpConstI8, And) and reads it back
// (CountOnes, SumMaskedU, SumProdMaskedU). The loop is AVX2 assembly
// (fused_amd64.s): int8 lanes widen to int16, compare, and multiply and
// pair-sum with VPMADDWD into int32 lane sums, 16 lanes a step. An int8
// product fits int16 and a tile's pair sums fit int32, so the stored widths
// alone keep the sums exact. HasAVX2 reports whether this CPU runs it; no
// build without it (other architectures, or the purego tag) has a kernel, and
// callers keep to the mask path there.

// RangeI8 is one int8 compare of the fused loop: over lanes widened to
// int16, a lane passes where Lo <= x <= Hi, or where it does not under Not.
type RangeI8 struct {
	Lo, Hi int16
	Not    bool
}

// CmpRangeI8 is x op c as a range. Widened, the six operators need no
// special case at the ends: x < -128 is the empty [-128, -129], x > 127 the
// empty [128, 127], and x <> c is x = c under Not.
func CmpRangeI8(op CmpOp, c int8) RangeI8 {
	k := int16(c)
	switch op {
	case LT:
		return RangeI8{Lo: math.MinInt8, Hi: k - 1}
	case LE:
		return RangeI8{Lo: math.MinInt8, Hi: k}
	case GT:
		return RangeI8{Lo: k + 1, Hi: math.MaxInt8}
	case GE:
		return RangeI8{Lo: k, Hi: math.MaxInt8}
	}
	return RangeI8{Lo: k, Hi: k, Not: op == NE}
}

// passAll is the second compare of a predicate with one: every lane passes.
var passAll = RangeI8{Lo: math.MinInt16, Hi: math.MaxInt16}

// onesI8 is the second factor of a sum over one column.
var onesI8 = func() (o [TileSize]int8) {
	for i := range o {
		o[i] = 1
	}
	return o
}()

// SumFusedI8 returns the number of lanes i < len(x) where x[i] passes cx and
// y[i] passes cy, and the sum over those lanes of a[i]*b[i] — of a[i] when b
// is nil, 0 when a is nil. A nil y is no second compare. y, a and b, where
// given, hold at least len(x) lanes. It needs HasAVX2.
func SumFusedI8(x []int8, cx RangeI8, y []int8, cy RangeI8, a, b []int8) (count, sum int64) {
	if y == nil {
		y, cy = x, passAll
	}
	lane := a != nil
	if !lane {
		a = x // summed and dropped
	}
	k := [6]int16{cx.Lo, cx.Hi, -int16(b2i(cx.Not)), cy.Lo, cy.Hi, -int16(b2i(cy.Not))}
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
