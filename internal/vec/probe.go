package vec

import "math"

// Positional-bitmap probes in AVX2 (probe_amd64.s), where the Go loops test
// one lane at a time. A probe reads the bitmap as 32-bit words: bit p is bit
// p&31 of word p>>5, which is where it lies in the little-endian 64-bit
// words, and one VPGATHERDD fetches eight lanes' words. AndBits shifts each lane's bit down and packs 32 lanes to bytes;
// SelectBits first gathers the lanes' positions through the selection
// vector, shifts each bit to the top, reads eight at once with VMOVMSKPS and
// compacts the selection in place through selPos, which never writes past
// the lane it reads. Every gather is masked to the lanes whose index lies in
// its slice, and a kernel returns the largest index it saw, so the wrapper
// fails an index outside the slice as the Go loop's index check does. Each
// kernel takes whole steps only; the caller runs the lanes after them
// through its Go loop, which is also the whole loop on a build without the
// kernels (HasAVX2 false).

// AndBits ANDs bit pos[j] of the bitmap words into cmp[j] for the first lanes
// of pos, a multiple of 32, and returns how many it took: none on a build
// without the kernel, for fewer than 32 lanes, or over an empty bitmap.
// cmp holds at least len(pos) lanes. A position outside the words panics.
func AndBits(words []uint64, pos []int32, cmp []byte) int {
	n := len(pos) &^ 31
	if !HasAVX2 || n == 0 || len(words) == 0 {
		return 0
	}
	_ = cmp[n-1]
	top := andBits(&words[0], limit(2*len(words)), &pos[0], &cmp[0], n)
	_ = words[top>>6]
	return n
}

// SelectBits keeps, in order and in place, the lanes j of sel whose bit
// pos[j] of the bitmap words is set, over the first lanes of sel, a multiple
// of 8. It returns how many lanes of sel it read and how many it kept, which
// now lead sel: none on a build without the kernel, for fewer than 8 lanes,
// or over an empty bitmap or pos. The lanes of sel past those kept and
// before those unread are left undefined. A lane of sel outside pos, or a
// position outside the words, panics.
func SelectBits(words []uint64, pos, sel []int32) (read, kept int) {
	n := len(sel) &^ 7
	if !HasAVX2 || n == 0 || len(words) == 0 || len(pos) == 0 {
		return 0, 0
	}
	kept, top, topSel := selectBits(&words[0], limit(2*len(words)), &pos[0], limit(len(pos)), &sel[0], n)
	_ = pos[topSel]
	_ = words[top>>6]
	return n, kept
}

// limit is the last of n > 0 indexes as a gather's unsigned bound: for the
// bitmap, n is its count of 32-bit words.
func limit(n int) uint32 { return uint32(min(uint64(n-1), math.MaxUint32)) }
