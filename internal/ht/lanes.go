package ht

import "math"

// Lane operations: the tile-at-a-time face of AggTable. A generic plan
// keeps one accumulator lane per aggregate (sums, minima, maxima; every
// group's tuple count is shared) and feeds the table a tile at a time:
// FoldTile resolves the tile's keys to slots and folds the count and the
// first sum in the same pass, then each further lane folds its value vector
// in one tight loop, so the per-aggregate dispatch runs once per tile
// instead of once per tuple. Every fold takes the tile's 0/1
// mask: all ones over selected lanes (hybrid), the predicate's verdict under
// masking, where a rejected lane contributes the lane's identity. Slot -1
// (a NullKey lane, key masking) routes to the throwaway entry as Add does.

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
// what Lookup(keys[i]) returns once the whole tile is in the table. On a
// key-addressed table that is a range-checked subtraction per lane, with a
// NullKey lane (every rejected lane under key masking) resolved to -1 in
// line; any other key outside the domain panics in outside. On a
// hashed one, keys already in the table — nearly every lane once a tile's
// groups exist — resolve with an inline probe; only an absent key goes
// through Lookup to be inserted (the inline probes are not tallied in
// Probes). A growth mid-tile moves every group, so the tile is resolved
// again; the second pass finds every key and cannot grow.
func (t *AggTable) LookupTile(keys []int64, slots []int32) {
	if len(keys) == 0 {
		return
	}
	_ = slots[len(keys)-1]
	if t.span != 0 {
		lo, span := uint64(t.lo), t.span
		for i, k := range keys {
			u := uint64(k) - lo
			if u >= span {
				if k != NullKey {
					t.outside(k)
				}
				u = ^uint64(0) // slot -1
			}
			slots[i] = int32(u)
		}
		return
	}
	for {
		grows := t.Grows
		tk, epoch, state, cur, mask := t.keys, t.epoch, t.state, t.cur, t.mask
	lanes:
		for i, k := range keys {
			h := hash64(uint64(k)) & mask
			if tk[h] == k && epoch[h] == cur && state[h] == slotFull && k != NullKey {
				slots[i] = int32(h) // at home, as most hits are
				continue
			}
			if k == NullKey {
				slots[i] = -1
				continue
			}
			for ; epoch[h] == cur && state[h] != slotEmpty; h = (h + 1) & mask {
				if tk[h] == k && state[h] == slotFull {
					slots[i] = int32(h)
					continue lanes
				}
			}
			slots[i] = int32(t.probeInsert(k))
			if t.Grows != grows {
				break
			}
		}
		if t.Grows == grows {
			return
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
// key-addressed.) Slot -1 folds into the throwaway entry, whose lanes a
// count-only table does not have.
func (t *AggTable) foldSlots(slots []int32, acc int, vals []int64, cmp []byte) {
	n, recs := t.stride, t.recs
	for i, s := range slots {
		m := int64(cmp[i])
		if s < 0 {
			t.ThrowawayCount += m
			if vals != nil {
				t.Throwaway[acc] += vals[i] * m
			}
			continue
		}
		recs[int(s)*n+n-1] += m
		if vals != nil {
			recs[int(s)*n+acc] += vals[i] * m
		}
	}
}

// foldDense is FoldTile on a key-addressed table with lanes folding after
// it, or none at all: the range check, the slot and the fold in one loop. On
// a packed table vals is nil, and the count is the word's low half.
func (t *AggTable) foldDense(keys []int64, slots []int32, acc int, vals []int64, cmp []byte) {
	lo, span, n, recs := uint64(t.lo), t.span, uint64(t.stride), t.recs
	for i, k := range keys {
		u, m := uint64(k)-lo, int64(cmp[i])
		if u >= span {
			t.outside(k)
			slots[i] = -1
			t.ThrowawayCount += m
			if vals != nil {
				t.Throwaway[acc] += vals[i] * m
			}
			continue
		}
		slots[i] = int32(u)
		recs[u*n+n-1] += m
		if vals != nil {
			recs[u*n+uint64(acc)] += vals[i] * m
		}
	}
}

// SumTile adds vals[i]*cmp[i] into lane acc of slots[i]'s group: the whole
// value under an all-ones mask (selected lanes), the value-masking product
// otherwise. On a packed table the sum is the word's high half.
func (t *AggTable) SumTile(slots []int32, acc int, vals []int64, cmp []byte) {
	if len(slots) == 0 {
		return
	}
	_, _ = vals[len(slots)-1], cmp[len(slots)-1]
	n, scale := t.stride, int64(1) // a multiply: a variable shift costs the int64 form 30 %
	if t.packed() {
		scale = 1 << 32
	}
	for i, s := range slots {
		v := vals[i] * int64(cmp[i])
		if s < 0 {
			t.Throwaway[acc] += v
			continue
		}
		t.recs[int(s)*n+acc] += v * scale
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
	n := t.stride
	for i, s := range slots {
		p := &t.Throwaway[acc]
		if s >= 0 {
			p = &t.recs[int(s)*n+acc]
		}
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
	n := t.stride
	for i, s := range slots {
		p := &t.Throwaway[acc]
		if s >= 0 {
			p = &t.recs[int(s)*n+acc]
		}
		v := vals[i]
		if cmp[i] == 0 {
			v = math.MinInt64
		}
		if v > *p {
			*p = v
		}
	}
}
