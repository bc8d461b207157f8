package vec

import (
	"encoding/binary"
	"math/bits"
)

// This file implements selection-vector construction, the second inner loop
// of the hybrid strategy in the paper's Figure 1: the predicated "no-branch"
// loop of the figure, which replaces the control dependency with a data
// dependency (Ross, PODS 2002), and the eight-lane loop the engine runs
// (SelFromCmpAdaptive, 32 lanes a step in AVX2), which takes no branch on a
// lane at any density.

// SelFromCmpNoBranch appends the indexes of set lanes in cmp to sel using
// the predicated technique shown in Figure 1 (hybrid, second inner loop):
//
//	idx[k] = j; k += cmp[j];
//
// sel must have capacity for len(cmp) entries. It returns the number of
// selected indexes. A zero-length tile selects nothing.
func SelFromCmpNoBranch(cmp []byte, sel []int32) int {
	if len(cmp) == 0 {
		return 0
	}
	_ = sel[len(cmp)-1]
	k := 0
	for j := range cmp {
		sel[k] = int32(j)
		k += int(cmp[j])
	}
	return k
}

// SelFromCmpAdaptive builds a selection vector from cmp eight lanes a step: a
// multiply packs the eight 0/1 bytes into one byte, selPos lists its set
// positions, all eight are stored, and the fill advances by the byte's
// popcount — no branch on a lane, the same cost at every density. Where
// HasAVX2, whole steps of 32 lanes run in gather_amd64.s: VPMOVMSKB reads the
// 32 bytes at once and each byte of the mask takes the same path. The fill
// never passes the lane index, so nothing past len(cmp) entries of sel is
// written. It returns the count and its density class (for Counters).
func SelFromCmpAdaptive(cmp []byte, sel []int32) (int, Density) {
	j, k := 0, 0
	if n := len(cmp) &^ 31; HasAVX2 && n > 0 {
		_ = sel[n-1]
		j, k = n, selFromMask(&cmp[0], n, &sel[0])
	}
	k = selFromCmpGo(cmp, j, sel, k)
	return k, classifyDensity(k, len(cmp))
}

// selFromCmpGo is SelFromCmpAdaptive's Go loop from lane j of cmp, with k
// lanes kept so far.
func selFromCmpGo(cmp []byte, j int, sel []int32, k int) int {
	for ; j+8 <= len(cmp); j += 8 {
		b := binary.LittleEndian.Uint64(cmp[j:]) * 0x0102040810204080 >> 56
		p, s, o := &selPos[b], sel[k:k+8:k+8], int32(j)
		s[0], s[1], s[2], s[3] = o+p[0], o+p[1], o+p[2], o+p[3]
		s[4], s[5], s[6], s[7] = o+p[4], o+p[5], o+p[6], o+p[7]
		k += bits.OnesCount8(uint8(b))
	}
	k, _ = SelFromCmpOffset(cmp[j:], j, sel, k)
	return k
}

// SelFromCmpOffset is the ROF variant: it appends *global* tuple indexes
// (base+j) for set lanes of cmp into sel starting at position k, stopping
// early if sel fills up. It returns the new fill level and how many lanes of
// cmp were consumed. ROF uses this to fill one full selection vector across
// tile boundaries before moving to the next pipeline stage (Section II-A3).
func SelFromCmpOffset(cmp []byte, base int, sel []int32, k int) (fill, consumed int) {
	for j := range cmp {
		if k == len(sel) {
			return k, j
		}
		sel[k] = int32(base + j)
		k += int(cmp[j])
	}
	return k, len(cmp)
}

// selPos lists each byte's set bit positions, lowest first, at their stored width.
var selPos = func() (t [256][8]int32) {
	for b := range t {
		for k, m := 0, uint8(b); m != 0; k, m = k+1, m&(m-1) {
			t[b][k] = int32(bits.TrailingZeros8(m))
		}
	}
	return t
}()
