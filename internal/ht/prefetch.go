package ht

import (
	"math"
	"slices"
)

// Software prefetch for the random-access loops. Go exposes no prefetch
// intrinsic, so the kernels touch the target cache line with a real load a
// tunable distance ahead of its use; the out-of-order window then overlaps
// the miss with the work in between. Each Touch returns the loaded bytes
// folded to a uint64 — callers must accumulate it into a live sink (a
// per-worker field) so the compiler cannot eliminate the loads (a bare
// `_ = slice[i]` compiles to only a bounds check). Returning instead of
// writing a shared sink keeps concurrent probe-side workers race-free.
//
// The touch targets are home slots: linear probing means a displaced key
// still starts its chain on the touched line, and at the ≤¾ load factors
// the tables run at, most probes end there too.

// PrefetchDist is the lookahead distance, in elements, between a touch and
// the probe/scatter that uses the line. Large enough to cover a DRAM miss
// (~100ns) with the ~10ns of work per element between them, small enough
// that touched lines survive in L1. Variable, not constant, so experiments
// can tune it; kernels read it once per tile.
var PrefetchDist = 12

// PrefetchMinBytes is the smallest table footprint the touch-lookahead
// loops bother prefetching. Below it the table lives in the fast cache
// levels, a probe's home line is a hit anyway, and the touch is pure
// extra hash-and-load work. Variable for experiments, like PrefetchDist.
var PrefetchMinBytes = 8 << 20

// Touch loads key's home cache lines (key, epoch and state arrays) ahead
// of a Lookup/Find/Add on the same key. The caller accumulates the return
// value into a live sink. A key-addressed table has no probe to get ahead
// of — its one access is the record itself — so Touch loads nothing.
func (t *AggTable) Touch(key int64) uint64 {
	if key == NullKey || t.span != 0 {
		return 0
	}
	i := hash64(uint64(key)) & t.mask
	return uint64(t.keys[i]) + uint64(t.epoch[i]) + uint64(t.state[i])
}

// NextLive returns the first slot at or after i holding a group, or -1 when
// none remain. Groups whose tuple count is zero are skipped unless
// includeInvalid (see ForEach). Together with Key it lets callers walk the
// table with a lookahead cursor, which ForEach's callback shape cannot
// express.
func (t *AggTable) NextLive(i int, includeInvalid bool) int {
	if t.span != 0 {
		for ; i < int(t.span); i++ {
			if t.count(i) > 0 {
				return i
			}
		}
		return -1
	}
	for ; i < len(t.keys); i++ {
		if t.live(uint64(i)) == slotFull && (includeInvalid || t.recs[i*t.stride+t.nAccs] > 0) {
			return i
		}
	}
	return -1
}

// Key returns the group key in slot (which must be live).
func (t *AggTable) Key(slot int) int64 {
	if t.span != 0 {
		return t.lo + int64(slot)
	}
	return t.keys[slot]
}

// AppendGroups appends every group with a positive tuple count to dst as
// an interleaved (key, lane 0) pair, in ForEach order — ascending keys on a
// key-addressed table, so the appended run is already the sorted emission.
func (t *AggTable) AppendGroups(dst []int64) []int64 {
	n := t.stride
	if t.packed() {
		return t.appendPacked(dst)
	}
	if t.span != 0 {
		for i, c := 0, n-1; c < len(t.recs); i, c = i+1, c+n {
			if t.recs[c] > 0 {
				dst = append(dst, t.lo+int64(i), t.recs[c-n+1])
			}
		}
		return dst
	}
	for i, k := range t.keys {
		if t.epoch[i] == t.cur && t.state[i] == slotFull && t.recs[i*n+n-1] > 0 {
			dst = append(dst, k, t.recs[i*n])
		}
	}
	return dst
}

// appendPacked is AppendGroups on a packed table without a branch per word,
// which live words at random would mispredict: each word's pair is written
// past dst's end, and kept by moving the end when its count is positive. A
// chunk at a time, so dst's capacity outgrows the groups by one chunk.
func (t *AggTable) appendPacked(dst []int64) []int64 {
	const chunk = 1024
	for base := 0; base < len(t.recs); base += chunk {
		words := t.recs[base:min(base+chunk, len(t.recs))]
		dst = slices.Grow(dst, 2*len(words))
		n := len(dst)
		out := dst[n : n+2*len(words)]
		j, key := 0, t.lo+int64(base)
		for i, w := range words {
			out[j+1], out[j] = w>>32, key+int64(i)
			j += int((uint64(uint32(w))+math.MaxUint32)>>32) * 2 // 2 iff the count is positive
		}
		dst = dst[:n+j]
	}
	return dst
}

// mergeRing bounds the MergeFrom lookahead window; power of two ≥ any
// sensible PrefetchDist.
const mergeRing = 32

// MergeFrom folds src's groups with a positive tuple count into dst and
// returns how many it merged. Two key-addressed tables of one domain and
// record form merge by element-wise addition of their records (or words) —
// a sequential pass, the per-worker merge of the direct path. Otherwise the
// groups are looked up with software prefetch: each group's home line in
// dst is touched PrefetchDist groups before its Lookup, so the DRAM misses
// of an out-of-cache destination overlap instead of serializing;
// accumulators are added pairwise and the destination count is bumped once
// per source group — exactly the fold the per-worker merge loops perform.
// Lanes merge by addition either way, so only sum lanes may be merged.
// Single-owner: dst and src must not be concurrently accessed.
func (dst *AggTable) MergeFrom(src *AggTable) uint64 {
	if dst.span != 0 && dst.span == src.span && dst.lo == src.lo && dst.nAccs == src.nAccs && dst.stride == src.stride {
		var merged uint64
		n := dst.stride
		d, s := dst.recs, src.recs[:len(dst.recs)]
		for c := n - 1; c < len(d); c += n {
			if s[c] == 0 {
				continue
			}
			for a := c - n + 1; a <= c; a++ {
				d[a] += s[a]
			}
			merged++
		}
		return merged
	}
	d := PrefetchDist
	if d < 1 {
		d = 1
	}
	if d > mergeRing-1 {
		d = mergeRing - 1
	}
	var ring [mergeRing]int32
	var sink uint64
	lead := src.NextLive(0, false)
	lag, queued := 0, 0
	for lead >= 0 && queued < d {
		sink += dst.Touch(src.Key(lead))
		ring[(lag+queued)&(mergeRing-1)] = int32(lead)
		queued++
		lead = src.NextLive(lead+1, false)
	}
	accs := min(src.nAccs, dst.nAccs)
	var merged uint64
	for queued > 0 {
		s := int(ring[lag&(mergeRing-1)])
		lag++
		queued--
		if lead >= 0 {
			sink += dst.Touch(src.Key(lead))
			ring[(lag+queued)&(mergeRing-1)] = int32(lead)
			queued++
			lead = src.NextLive(lead+1, false)
		}
		j := dst.Lookup(src.Key(s))
		for a := 0; a < accs; a++ {
			dst.Add(j, a, src.Acc(s, a))
		}
		merged++
	}
	dst.pf += sink
	return merged
}

// AddPairs aggregates (key, value) pairs into accumulator 0, counting each
// tuple: Add(Lookup(keys[i]), 0, vals[i]) for every pair. NullKey pairs
// land in the throwaway entry. On a key-addressed table the loop is a
// range check, a subtraction and two adds into one record (one when packed).
func (t *AggTable) AddPairs(keys, vals []int64) {
	if len(keys) == 0 {
		return
	}
	_ = vals[len(keys)-1]
	switch {
	case t.packed():
		t.addPairsPacked(keys, vals)
		return
	case t.span != 0:
		t.addPairsDense(keys, vals)
		return
	}
	n := t.stride
	for i, k := range keys {
		j := t.probeInsert(k)
		if j < 0 {
			t.Throwaway[0] += vals[i]
			t.ThrowawayCount++
			continue
		}
		t.recs[j*n] += vals[i]
		t.recs[j*n+n-1]++
	}
}

// addPairsDense is AddPairs on a key-addressed table. (Its own function, as
// is the masked one: sharing a frame with the hashed loop spills the hot
// loop's registers.)
func (t *AggTable) addPairsDense(keys, vals []int64) {
	lo, span, n, recs := uint64(t.lo), t.span, uint64(t.stride), t.recs
	for i, k := range keys {
		u := uint64(k) - lo
		if u >= span {
			t.outside(k)
			t.Throwaway[0] += vals[i]
			t.ThrowawayCount++
			continue
		}
		recs[u*n] += vals[i]
		recs[u*n+n-1]++
	}
}

// addPairsPacked is AddPairs on a packed table: v<<32 + 1 adds the value to
// the sum and one to the count. The domain is the record array's length.
func (t *AggTable) addPairsPacked(keys, vals []int64) {
	lo, recs, vals := uint64(t.lo), t.recs, vals[:len(keys)]
	for i, k := range keys {
		u := uint64(k) - lo
		if u >= uint64(len(recs)) {
			t.Add(t.outside(k), 0, vals[i])
			continue
		}
		recs[u] += vals[i]<<32 + 1
	}
}

// AddPairsMasked is AddPairs under a 0/1 mask, the value-masking fold:
// AddMasked(Lookup(keys[i]), 0, vals[i], cmp[i]) for every pair. Every
// lane looks its real key up; a rejected lane adds zero to the sum and to
// the count.
func (t *AggTable) AddPairsMasked(keys, vals []int64, cmp []byte) {
	if len(keys) == 0 {
		return
	}
	_, _ = vals[len(keys)-1], cmp[len(keys)-1]
	switch {
	case t.packed():
		t.addPairsMaskedPacked(keys, vals, cmp)
		return
	case t.span != 0:
		t.addPairsMaskedDense(keys, vals, cmp)
		return
	}
	n := t.stride
	for i, k := range keys {
		j := t.probeInsert(k)
		m := int64(cmp[i])
		if j < 0 {
			t.Throwaway[0] += vals[i] * m
			t.ThrowawayCount += m
			continue
		}
		t.recs[j*n] += vals[i] * m
		t.recs[j*n+n-1] += m
	}
}

func (t *AggTable) addPairsMaskedDense(keys, vals []int64, cmp []byte) {
	lo, span, n, recs := uint64(t.lo), t.span, uint64(t.stride), t.recs
	for i, k := range keys {
		u := uint64(k) - lo
		m := int64(cmp[i])
		if u >= span {
			t.outside(k)
			t.Throwaway[0] += vals[i] * m
			t.ThrowawayCount += m
			continue
		}
		recs[u*n] += vals[i] * m
		recs[u*n+n-1] += m
	}
}

// addPairsMaskedPacked is AddPairsMasked on a packed table: one add of
// (v*m)<<32 + m per pair.
func (t *AggTable) addPairsMaskedPacked(keys, vals []int64, cmp []byte) {
	lo, recs, vals, cmp := uint64(t.lo), t.recs, vals[:len(keys)], cmp[:len(keys)]
	for i, k := range keys {
		u := uint64(k) - lo
		if u >= uint64(len(recs)) {
			t.AddMasked(t.outside(k), 0, vals[i], cmp[i])
			continue
		}
		m := int64(cmp[i])
		recs[u] += (vals[i]*m)<<32 + m
	}
}

// FoldPairs aggregates a chunk of (key, value) pairs into accumulator 0 —
// the phase-2 radix fold. When a hashed table's footprint is past
// PrefetchMinBytes, each key's home line is touched PrefetchDist pairs
// ahead of its Lookup so the probe misses overlap; a cache-resident table
// (the usual radix sub-table case) and a key-addressed one take AddPairs'
// plain loop instead. It returns the number of pairs folded with the
// lookahead (0 for the plain loop), which callers tally as their
// prefetched-probe count.
// Single-owner: the table must not be concurrently accessed.
func (t *AggTable) FoldPairs(keys, vals []int64) int {
	n := len(keys)
	if t.span != 0 || len(t.keys)*t.SlotBytes() < PrefetchMinBytes {
		t.AddPairs(keys, vals)
		return 0
	}
	d := PrefetchDist
	var sink uint64
	for j := 0; j < d && j < n; j++ {
		sink += t.Touch(keys[j])
	}
	for i := 0; i < n; i++ {
		if i+d < n {
			sink += t.Touch(keys[i+d])
		}
		t.Add(t.Lookup(keys[i]), 0, vals[i])
	}
	t.pf += sink
	return n
}

// Touch loads key's home cache lines ahead of a Probe/Insert. The caller
// accumulates the return value into a live sink.
func (t *JoinTable) Touch(key int64) uint64 {
	i := hash64(uint64(key)) & t.mask
	return uint64(t.keys[i]) + uint64(t.epoch[i]) + uint64(t.state[i])
}

// Touch loads key's home cache lines in its partition's sub-table ahead of
// a Probe.
func (t *PartitionedJoinTable) Touch(key int64) uint64 {
	return t.subs[hash64(uint64(key))>>t.shift].Touch(key)
}
