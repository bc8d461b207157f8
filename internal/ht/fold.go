package ht

import (
	"fmt"

	"github.com/reprolab/swole/internal/vec"
)

// Fused folds: FoldTile or FoldTileKeyMasked and the lane folds after it in
// one loop a tile, for records of the count after one, two or three sums, or
// after a min and a max over one operand, reading every key and argument
// column at its stored width: the build compiles a loop per combination of
// widths, and a caller picks one per plan. No loop switches on a lane's kind
// or walks a list of lanes; the record's shape is a constant, so the state
// fits registers.

// TileKey is a fused fold's keys, lane i's K0[i]·M0 + K1[i] + Add: two key columns
// packed in the loop, or one as K0 and K1 with M0 zero.
type TileKey[K vec.Number] struct {
	K0, K1  []K
	M0, Add int64
}

// fuse returns a fused fold's records (of nAccs lanes); the origin of a key's
// offset, its slot when under span (the domain); and rej, all ones under key
// masking, where rejected lanes go to the throwaway record. Fused folds are
// key-addressed only: a hashed table folds by the lane passes.
func (t *AggTable) fuse(nAccs int, add int64, keyMask bool) (recs []int64, lo, span, rej uint64) {
	switch {
	case t.span == 0:
		panic("ht: a fused fold on a hashed table")
	case t.nAccs != nAccs:
		panic(fmt.Sprintf("ht: a fused fold of %d lanes on a table of %d", nAccs, t.nAccs))
	}
	if keyMask {
		rej = ^uint64(0)
	}
	return t.recs, uint64(t.lo) - uint64(add), t.span, rej
}

// refused vets lane i's key, which a fused fold's range check refused (outside), and
// counts the lane into the throwaway record, whose lanes are nobody's answer:
// into its last word, whose low half is a packed table's count.
func refused[K vec.Number](t *AggTable, k TileKey[K], cmp []byte, rej uint64, i int) int {
	if i < len(k.K1) {
		t.outside(int64(k.K0[i])*k.M0 + int64(k.K1[i]) + k.Add)
		t.recs[(t.Cap()+1)*t.stride-1] += int64(uint64(cmp[i]) | rej&1)
	}
	return i + 1
}

// FoldSum1 folds a tile into a key-addressed table's records of one sum and
// the count, packed (one word, sum<<32 + count) or not, keyed by one column:
// lane i's key is keys[i] + add. Lane i adds its weight w to the count and
// a[i]·w to the sum — w is its mask, or 1 under keyMask, as in FoldSum2. cmp
// nil is the unmasked pair fold: every lane weighs 1 into its key's group.
// Each form is the loop of the lane pass it replaces, at the stored widths:
// the pair folds' (foldPairs), and key masking's slot arithmetic with the
// keys vetted after the loop (FoldTileKeyMasked).
func FoldSum1[K, A vec.Number](t *AggTable, keys []K, add int64, a []A, cmp []byte, keyMask bool) {
	recs, lo, span, _ := t.fuse(1, add, false)
	if !keyMask || cmp == nil {
		foldPairs(t, keys, add, a, cmp)
		return
	}
	var bad uint64
	if t.packed() {
		bad = keyMaskPacked(recs, keys, a, cmp, lo+span, span)
	} else {
		bad = keyMask1(recs, keys, a, cmp, lo+span, span)
	}
	if bad != 0 {
		for _, key := range keys {
			if uint64(key)-lo >= span {
				t.outside(int64(key) + add)
			}
		}
	}
}

// keyMask1 is keyMaskFold's loop for FoldSum1, over two-word records at
// the stored widths and writing no slots.
func keyMask1[K, A vec.Number](recs []int64, keys []K, a []A, cmp []byte, top, span uint64) (bad uint64) {
	a, cmp = a[:len(keys)], cmp[:len(keys)]
	for i, k := range keys {
		d := uint64(k) - top
		in := (d &^ (d + span)) >> 63
		bad |= in ^ 1
		s := (span + d*(uint64(cmp[i])&in)) * 2
		recs[s] += int64(a[i])
		recs[s+1]++
	}
	return bad
}

// FoldSum2 folds a tile into records of two sums and the count: lane i adds its
// weight w (its mask; 1 under keyMask) to the count, a[i]·w and b[i]·w to lanes 0, 1.
func FoldSum2[K, A, B vec.Number](t *AggTable, k TileKey[K], a []A, b []B, cmp []byte, keyMask bool) {
	recs, lo, span, rej := t.fuse(2, k.Add, keyMask)
	k0, k1, m0, a, b, cmp := k.K0[:len(k.K1)], k.K1, k.M0, a[:len(k.K1)], b[:len(k.K1)], cmp[:len(k.K1)]
	for i := 0; i < len(k1); i = refused(t, k, cmp, rej, i) {
		for ; i < len(k1); i++ {
			u, c := uint64(int64(k0[i])*m0+int64(k1[i]))-lo, uint64(cmp[i])
			if u >= span {
				break
			}
			s, w := (u+(span-u)&((c-1)&rej))*3, int64(c|rej&1)
			recs[s+2] += w
			recs[s] += int64(a[i]) * w
			recs[s+1] += int64(b[i]) * w
		}
	}
}

// FoldSum3 is FoldSum2 over records of three sums, c[i]·w adding to lane 2.
func FoldSum3[K, A, B, C vec.Number](t *AggTable, k TileKey[K], a []A, b []B, c []C, cmp []byte, keyMask bool) {
	recs, lo, span, rej := t.fuse(3, k.Add, keyMask)
	k0, k1, m0, a, b, c, cmp := k.K0[:len(k.K1)], k.K1, k.M0, a[:len(k.K1)], b[:len(k.K1)], c[:len(k.K1)], cmp[:len(k.K1)]
	for i := 0; i < len(k1); i = refused(t, k, cmp, rej, i) {
		for ; i < len(k1); i++ {
			u, g := uint64(int64(k0[i])*m0+int64(k1[i]))-lo, uint64(cmp[i])
			if u >= span {
				break
			}
			s, w := (u+(span-u)&((g-1)&rej))*4, int64(g|rej&1)
			recs[s+3] += w
			recs[s] += int64(a[i]) * w
			recs[s+1] += int64(b[i]) * w
			recs[s+2] += int64(c[i]) * w
		}
	}
}

// FoldMinMax folds a tile into records of a min and a max over one operand
// and the count; a lane of weight zero offers the lanes' identities.
func FoldMinMax[K, A vec.Number](t *AggTable, k TileKey[K], a []A, cmp []byte, keyMask bool) {
	recs, lo, span, rej := t.fuse(2, k.Add, keyMask)
	k0, k1, m0, a, cmp := k.K0[:len(k.K1)], k.K1, k.M0, a[:len(k.K1)], cmp[:len(k.K1)]
	for i := 0; i < len(k1); i = refused(t, k, cmp, rej, i) {
		for ; i < len(k1); i++ {
			u, c := uint64(int64(k0[i])*m0+int64(k1[i]))-lo, uint64(cmp[i])
			if u >= span {
				break
			}
			s, w := (u+(span-u)&((c-1)&rej))*3, int64(c|rej&1)
			recs[s+2] += w
			vmin, vmax := int64(a[i]), int64(a[i])
			if w == 0 {
				vmin, vmax = 1<<63-1, -1<<63
			}
			if vmin < recs[s] { // a store only where a lane wins: no chain through the record
				recs[s] = vmin
			}
			if vmax > recs[s+1] {
				recs[s+1] = vmax
			}
		}
	}
}
