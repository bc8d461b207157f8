package vec

import "encoding/binary"

// The mask plane: combining, filling and counting 0/1 comparison vectors.
// Every lane of a mask is exactly 0 or 1 (every producer is pinned to that
// by TestMaskProducersEmitZeroOne), so eight lanes are one 64-bit word and
// these kernels work a word at a time — binary.LittleEndian's Uint64 and
// PutUint64 compile to single moves — with a byte loop for the tail only.

// ones is a word of eight set lanes.
const ones = 0x0101010101010101

// le reads and writes the eight lanes of a word.
var le = binary.LittleEndian

// And combines a second predicate's results into dst: dst[i] &= src[i].
// Conjunctions in the prepass are chained this way (paper Fig. 7 queries all
// carry a conjunct "and r_y = 1").
func And(dst, src []byte) {
	n, i := len(dst), 0
	src = src[:n]
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		le.PutUint64(d, le.Uint64(d)&le.Uint64(src[i:i+8:i+8]))
	}
	for ; i < n; i++ {
		dst[i] &= src[i]
	}
}

// Or combines a second predicate's results into dst: dst[i] |= src[i].
// Disjunctions such as TPC-H Q19's three-way OR use this kernel.
func Or(dst, src []byte) {
	n, i := len(dst), 0
	src = src[:n]
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		le.PutUint64(d, le.Uint64(d)|le.Uint64(src[i:i+8:i+8]))
	}
	for ; i < n; i++ {
		dst[i] |= src[i]
	}
}

// Not inverts a comparison vector in place. Eager aggregation inverts the
// build-side predicate to delete non-qualifying keys (paper Section III-E).
func Not(dst []byte) {
	n, i := len(dst), 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		le.PutUint64(d, le.Uint64(d)^ones)
	}
	for ; i < n; i++ {
		dst[i] ^= 1
	}
}

// Fill sets every lane of dst to v. A missing predicate is an all-ones
// comparison vector.
func Fill(dst []byte, v byte) {
	n, i, w := len(dst), 0, uint64(v)*ones
	for ; i+8 <= n; i += 8 {
		le.PutUint64(dst[i:i+8:i+8], w)
	}
	for ; i < n; i++ {
		dst[i] = v
	}
}

// CountOnes returns the number of set lanes in a comparison vector; it is
// the tile-local selectivity numerator. Words are summed lane-wise (SWAR):
// 255 words cannot overflow a lane, so a whole tile folds horizontally once.
func CountOnes(cmp []byte) int {
	n, i, total := len(cmp), 0, 0
	for i+8 <= n {
		var acc uint64
		for end := min(n-7, i+8*255); i < end; i += 8 {
			acc += le.Uint64(cmp[i : i+8 : i+8])
		}
		// Eight lanes ≤ 255 → four 16-bit sums ≤ 510 → their total in the
		// top 16 bits.
		acc = acc&0x00ff00ff00ff00ff + acc>>8&0x00ff00ff00ff00ff
		total += int(acc * 0x0001000100010001 >> 48)
	}
	for ; i < n; i++ {
		total += int(cmp[i])
	}
	return total
}

// AllOnes reports whether every lane of a 0/1 byte mask is set, the
// tile-level short circuit of a disjunction: no later term can add a lane.
func AllOnes(cmp []byte) bool { return allLanes(cmp, 1) }

// AllZeros reports whether no lane of a 0/1 byte mask is set, the
// tile-level short circuit of a conjunction: no later term can keep a lane.
func AllZeros(cmp []byte) bool { return allLanes(cmp, 0) }

func allLanes(cmp []byte, v byte) bool {
	n, i, w := len(cmp), 0, uint64(v)*ones
	for ; i+8 <= n; i += 8 {
		if le.Uint64(cmp[i:i+8:i+8]) != w {
			return false
		}
	}
	for ; i < n; i++ {
		if cmp[i] != v {
			return false
		}
	}
	return true
}
