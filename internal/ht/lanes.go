package ht

import (
	"math"

	"github.com/reprolab/swole/internal/vec"
)

// Lane operations: the tile-at-a-time face of AggTable. A generic plan
// keeps one accumulator lane per aggregate (sums, minima, maxima; every
// group's tuple count is shared) and feeds the table a tile at a time:
// FoldTile resolves the tile's keys to slots and folds the count and the
// first sum in the same pass, then each further lane folds its value vector
// in one tight loop, so the per-aggregate dispatch runs once per tile
// instead of once per tuple. Every fold takes the tile's 0/1
// mask: all ones over selected lanes (hybrid), the predicate's verdict under
// masking, where a rejected lane contributes the lane's identity. A NullKey
// lane resolves to the throwaway record's slot, Cap(), and every kernel
// indexes that record like a group's: no lane loop tests its slot, and none
// calls a function — a lane the key-addressed range check refuses, or a key
// a hashed table must insert, ends the loop, is resolved out of line, and
// the loop resumes after it.

// SetIdentity makes new groups start lane acc at v instead of zero — the
// identity of a min or max lane. Set it before the first Lookup; groups
// already in a hashed table keep their values, and a key-addressed table
// takes the identity at its next Reset. A packed table's lane is a sum and
// has none: asking panics.
func (t *AggTable) SetIdentity(acc int, v int64) {
	t.sumsOnly("SetIdentity")
	if t.ident == nil {
		t.ident = make([]int64, t.nAccs)
	}
	t.ident[acc] = v
}

// LookupTile resolves keys to slots, inserting absent groups: slots[i] is
// what Lookup(keys[i]) returns once the whole tile is in the table, except
// that a NullKey lane (every rejected lane under key masking) gets the
// throwaway record's slot, Cap(), where Lookup returns -1. On a
// key-addressed table that is a range-checked subtraction per lane; a lane
// the check refuses is resolved out of line (refuse), where any key but
// NullKey panics. On a hashed one, keys already in the table — nearly every
// lane once a tile's groups exist — resolve with an inline probe; an absent
// key ends the lane loop to be inserted by probeInsert. A growth mid-tile
// moves every group, so the tile is resolved again.
func (t *AggTable) LookupTile(keys []int64, slots []int32) {
	if len(keys) == 0 {
		return
	}
	slots = slots[:len(keys)]
	if t.span != 0 {
		lo, span := uint64(t.lo), t.span
		for i := 0; i < len(keys); i++ {
			for ; i < len(keys); i++ {
				u := uint64(keys[i]) - lo
				if u >= span {
					break
				}
				slots[i] = int32(u)
			}
			if i < len(keys) {
				slots[i] = t.refuse(keys[i], 0, 0, 0)
			}
		}
		return
	}
	for i := 0; i < len(keys); i++ {
		tk, epoch, cur, mask := t.keys, t.epoch, t.cur, t.mask
		tw := int32(mask + 1)
	lanes:
		for ; i < len(keys); i++ {
			k := keys[i]
			h := hash64(uint64(k)) & mask
			if tk[h] == k && epoch[h] == cur {
				slots[i] = int32(h) // at home, as most hits are (NullKey never is)
				continue
			}
			if k == NullKey {
				slots[i] = tw
				continue
			}
			for ; epoch[h] == cur; h = (h + 1) & mask {
				if tk[h] == k {
					slots[i] = int32(h)
					continue lanes
				}
			}
			break
		}
		if i < len(keys) {
			grows := t.Grows
			slots[i] = int32(t.probeInsert(keys[i]))
			if t.Grows != grows {
				i = -1 // every group moved: resolve the tile again
			}
		}
	}
}

// sumsOnly panics on a packed table, whose lane is a sum: a caller bug.
func (t *AggTable) sumsOnly(op string) {
	if t.packed() {
		panic("ht: " + op + " on a packed table")
	}
}

// FoldTile is a tile's first fold in one pass: lane i resolves keys[i] to its
// slot as LookupTile does, adds cmp[i] to the group's tuple count and, when
// vals is non-nil, adds vals[i]*cmp[i] into lane acc. A group that only
// rejected tuples reached keeps a zero count, which keeps it out of the
// emission. slots (room for len(keys)) receives every lane's slot for the
// lanes that fold after this one: a one-lane table folded with vals has none
// and runs the pair loop of AddPairsMasked, which leaves slots alone. The
// hashed form resolves through LookupTile first, so its growth re-resolves
// the tile before anything is added.
func (t *AggTable) FoldTile(keys []int64, slots []int32, acc int, vals []int64, cmp []byte) {
	if len(keys) == 0 {
		return
	}
	_, slots = cmp[len(keys)-1], slots[:len(keys)]
	if vals != nil {
		vals = vals[:len(keys)]
	}
	switch {
	case t.span == 0:
		t.LookupTile(keys, slots)
		t.foldSlots(slots, acc, vals, cmp)
	case t.nAccs == 1 && vals != nil:
		t.AddPairsMasked(keys, vals, cmp)
	default:
		t.foldDense(keys, slots, acc, vals, cmp)
	}
}

// foldSlots is FoldTile's fold over resolved slots: the count and, with
// vals, lane acc in one loop. (Never on a packed table: those are
// key-addressed.)
func (t *AggTable) foldSlots(slots []int32, acc int, vals []int64, cmp []byte) {
	n, recs := t.stride, t.recs
	for i, s := range slots {
		m := int64(cmp[i])
		recs[int(s)*n+n-1] += m
		if vals != nil {
			recs[int(s)*n+acc] += vals[i] * m
		}
	}
}

// foldDense is FoldTile on a key-addressed table with lanes folding after
// it, or none at all: the range check, the slot and the fold in one loop. On
// a packed table vals is nil, and the count is the word's low half. The
// count-only fold is a loop of its own: a nil test and vals' length in one
// loop would spill its state (9 % on a three-lane fold).
func (t *AggTable) foldDense(keys []int64, slots []int32, acc int, vals []int64, cmp []byte) {
	lo, span, n, recs := uint64(t.lo), t.span, uint64(t.stride), t.recs
	slots, cmp = slots[:len(keys)], cmp[:len(keys)] // one length: no bounds checks in the loop
	if vals == nil {
		for i := 0; i < len(keys); i++ {
			for ; i < len(keys); i++ {
				u := uint64(keys[i]) - lo
				if u >= span {
					break
				}
				slots[i] = int32(u)
				recs[u*n+n-1] += int64(cmp[i])
			}
			if i < len(keys) {
				slots[i] = t.refuse(keys[i], acc, 0, int64(cmp[i]))
			}
		}
		return
	}
	vals = vals[:len(keys)]
	for i := 0; i < len(keys); i++ {
		for ; i < len(keys); i++ {
			u, m := uint64(keys[i])-lo, int64(cmp[i])
			if u >= span {
				break
			}
			slots[i] = int32(u)
			recs[u*n+n-1] += m
			recs[u*n+uint64(acc)] += vals[i] * m
		}
		if i < len(keys) {
			slots[i] = t.refuse(keys[i], acc, vals[i], int64(cmp[i]))
		}
	}
}

// FoldTileKeyMasked is FoldTile's key-masking mode (Section III-B) on a
// key-addressed table: lane i folds into keys[i]'s group when cmp[i] is 1
// and into the throwaway record when it is 0 — what FoldTile does under an
// all-ones mask to the keys vec.MaskKeysU masks to NullKey, with no masked
// key vector. The lane's slot is arithmetic, tw + (u−tw)·cmp[i] for the
// throwaway record's slot tw (Cap()) and the key's offset u, and the lane
// adds one to that record's count and its whole value to lane acc, so a
// rejected lane costs one more cached add and no branch. slots receives
// every lane's slot, as FoldTile's, for the lanes that fold after this one
// under the same mask; a packed table's pair loop leaves it alone. Every
// key, rejected or not, must lie in the domain or be NullKey: the range check
// is an OR over the tile, a key it refuses folds into the throwaway record,
// and after the loop any such key but NullKey panics (outside). On a hashed
// table, whose probe needs the masked keys, it panics.
func (t *AggTable) FoldTileKeyMasked(keys []int64, slots []int32, acc int, vals []int64, cmp []byte) {
	if t.span == 0 {
		panic("ht: FoldTileKeyMasked on a hashed table")
	}
	if len(keys) == 0 {
		return
	}
	lo, span := uint64(t.lo), t.span
	var bad uint64
	if t.packed() && vals != nil {
		bad = keyMaskPacked(t.recs, keys, vals, cmp, lo+span, span)
	} else {
		bad = keyMaskFold(t.recs, keys, slots, vals, cmp, lo+span, span, uint64(t.stride), uint64(acc))
	}
	if bad != 0 {
		for _, k := range keys {
			if uint64(k)-lo >= span {
				t.outside(k)
			}
		}
	}
}

// keyMaskFold is FoldTileKeyMasked's loop over records of n words, and
// keyMaskPacked its pair loop over packed words; each returns nonzero when
// the range check refused a key. They are functions of their own, so no call
// shares the loop's frame. A lane computes d = u − span (top is lo+span: one
// register fewer than keeping lo), and in, 1 iff u < span, as arithmetic:
// the sign of d without the sign of u = d + span.
func keyMaskFold(recs, keys []int64, slots []int32, vals []int64, cmp []byte, top, span, n, acc uint64) (bad uint64) {
	slots, cmp = slots[:len(keys)], cmp[:len(keys)]
	if vals == nil { // a loop of its own, as in foldDense
		for i, k := range keys {
			d := uint64(k) - top
			in := (d &^ (d + span)) >> 63
			bad |= in ^ 1
			s := span + d*(uint64(cmp[i])&in)
			slots[i] = int32(s)
			recs[s*n+n-1]++
		}
		return bad
	}
	vals = vals[:len(keys)]
	for i, k := range keys {
		d := uint64(k) - top
		in := (d &^ (d + span)) >> 63
		bad |= in ^ 1
		s := span + d*(uint64(cmp[i])&in)
		slots[i] = int32(s)
		recs[s*n+n-1]++
		recs[s*n+acc] += vals[i]
	}
	return bad
}

// keyMaskPacked reads keys and values at their stored widths: it is
// FoldTileKeyMasked's loop on a packed table and FoldSum1's.
func keyMaskPacked[K, A vec.Number](recs []int64, keys []K, a []A, cmp []byte, top, span uint64) (bad uint64) {
	a, cmp = a[:len(keys)], cmp[:len(keys)]
	for i, k := range keys {
		d := uint64(k) - top
		in := (d &^ (d + span)) >> 63
		bad |= in ^ 1
		recs[span+d*(uint64(cmp[i])&in)] += int64(a[i])<<32 + 1
	}
	return bad
}

// SumTile adds vals[i]*cmp[i] into lane acc of slots[i]'s group: the whole
// value under an all-ones mask (selected lanes), the value-masking product
// otherwise. On a packed table the sum is the word's high half.
func (t *AggTable) SumTile(slots []int32, acc int, vals []int64, cmp []byte) {
	if len(slots) == 0 {
		return
	}
	_, _ = vals[len(slots)-1], cmp[len(slots)-1]
	n, recs, scale := t.stride, t.recs, int64(1) // a multiply: a variable shift costs the int64 form 30 %
	if t.packed() {
		scale = 1 << 32
	}
	for i, s := range slots {
		recs[int(s)*n+acc] += vals[i] * int64(cmp[i]) * scale
	}
}

// MinTile lowers lane acc of slots[i]'s group to vals[i] where smaller and
// cmp[i] is 1. The lane's identity (SetIdentity) should be math.MaxInt64.
func (t *AggTable) MinTile(slots []int32, acc int, vals []int64, cmp []byte) {
	t.sumsOnly("MinTile")
	if len(slots) == 0 {
		return
	}
	_, _ = vals[len(slots)-1], cmp[len(slots)-1]
	n, recs := t.stride, t.recs
	for i, s := range slots {
		p := &recs[int(s)*n+acc]
		v := vals[i]
		if cmp[i] == 0 {
			v = math.MaxInt64 // conditional move: a rejected lane cannot win
		}
		if v < *p {
			*p = v
		}
	}
}

// MaxTile raises lane acc of slots[i]'s group to vals[i] where larger and
// cmp[i] is 1. The lane's identity should be math.MinInt64.
func (t *AggTable) MaxTile(slots []int32, acc int, vals []int64, cmp []byte) {
	t.sumsOnly("MaxTile")
	if len(slots) == 0 {
		return
	}
	_, _ = vals[len(slots)-1], cmp[len(slots)-1]
	n, recs := t.stride, t.recs
	for i, s := range slots {
		p := &recs[int(s)*n+acc]
		v := vals[i]
		if cmp[i] == 0 {
			v = math.MinInt64
		}
		if v > *p {
			*p = v
		}
	}
}
