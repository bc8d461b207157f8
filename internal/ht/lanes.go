package ht

import "math"

// Lane operations: the tile-at-a-time face of AggTable. A generic plan
// keeps one accumulator lane per aggregate (sums, minima, maxima; every
// group's tuple count is shared) and feeds the table a tile at a time:
// LookupTile resolves the tile's keys to slots once, then each lane folds
// its value vector in one tight loop, so the per-aggregate dispatch runs
// once per tile instead of once per tuple. Every fold takes the tile's 0/1
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

// CountTile counts lane i's tuple into slots[i]'s group when cmp[i] is 1. A
// group that only rejected tuples reached keeps a zero count, which is what
// keeps it out of the emission.
func (t *AggTable) CountTile(slots []int32, cmp []byte) {
	if len(slots) == 0 {
		return
	}
	_ = cmp[len(slots)-1]
	n := t.stride
	for i, s := range slots {
		if s < 0 {
			t.ThrowawayCount += int64(cmp[i])
			continue
		}
		t.recs[int(s)*n+n-1] += int64(cmp[i])
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
