package ht

import (
	"bytes"
	"math"
	"slices"

	"github.com/reprolab/swole/internal/vec"
)

// The pair face of AggTable: walking its groups (NextLive, Key), emitting
// them as interleaved (key, sum) pairs (AppendGroups), merging two tables
// (MergeFrom), and folding (key, value) pairs with and without a mask
// (AddPairs, AddPairsMasked).

// NextLive returns the first slot at or after i holding a group with a
// positive tuple count, or -1 when none remain. Together with Key it lets
// callers walk the table with a lookahead cursor, which ForEach's callback
// shape cannot express.
func (t *AggTable) NextLive(i int) int {
	if t.span != 0 {
		for ; i < int(t.span); i++ {
			if t.count(i) > 0 {
				return i
			}
		}
		return -1
	}
	for ; i < len(t.keys); i++ {
		if t.epoch[i] == t.cur && t.recs[i*t.stride+t.nAccs] > 0 {
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
		for i, c := 0, n-1; c < int(t.span)*n; i, c = i+1, c+n {
			if t.recs[c] > 0 {
				dst = append(dst, t.lo+int64(i), t.recs[c-n+1])
			}
		}
		return dst
	}
	for i, k := range t.keys {
		if t.epoch[i] == t.cur && t.recs[i*n+n-1] > 0 {
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
	for base := 0; base < int(t.span); base += chunk { // the groups' words: a packed table is key-addressed
		words := t.recs[base:min(base+chunk, int(t.span))]
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

// MergeFrom folds src's groups into dst and returns how many it merged: two
// key-addressed tables of one domain and record form merge by element-wise
// addition of their records (or words) — a sequential pass, the per-worker
// merge of a gang scan. Records add lane by lane, so only tables of sums and
// counts may be merged; any other pair of tables panics. The throwaway
// records are not merged.
// Single-owner: dst and src must not be concurrently accessed.
func (dst *AggTable) MergeFrom(src *AggTable) uint64 {
	if dst.span == 0 || dst.span != src.span || dst.lo != src.lo || dst.nAccs != src.nAccs || dst.stride != src.stride {
		panic("ht: MergeFrom needs two key-addressed tables of one domain and record form")
	}
	var merged uint64
	n := dst.stride
	d := dst.recs[:int(dst.span)*n]
	s := src.recs[:len(d)]
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

// AddPairs aggregates (key, value) pairs into accumulator 0, counting each
// tuple: Add(Lookup(keys[i]), 0, vals[i]) for every pair. NullKey pairs
// land in the throwaway record. On a key-addressed table the loop is a
// range check, a subtraction and two adds into one record (one when packed);
// a hashed table resolves the pairs a chunk at a time (LookupTile) and folds
// them over their slots.
func (t *AggTable) AddPairs(keys, vals []int64) {
	if len(keys) == 0 {
		return
	}
	_ = vals[len(keys)-1]
	if t.span == 0 {
		t.addPairsHashed(keys, vals, nil)
		return
	}
	foldPairs(t, keys, 0, vals, nil)
}

// pairChunk is how many pairs a hashed table resolves at a time; ones is the
// all-ones mask of an unmasked chunk.
const pairChunk = 256

var ones = bytes.Repeat([]byte{1}, pairChunk)

// addPairsHashed is AddPairs (cmp nil) and AddPairsMasked on a hashed table:
// LookupTile resolves a chunk of pairs into slots on the stack, and the
// fold over them (foldSlots) counts NullKey pairs into the throwaway record
// like any other.
func (t *AggTable) addPairsHashed(keys, vals []int64, cmp []byte) {
	var slots [pairChunk]int32
	for a := 0; a < len(keys); a += pairChunk {
		b := min(a+pairChunk, len(keys))
		m := ones[:b-a]
		if cmp != nil {
			m = cmp[a:b]
		}
		t.LookupTile(keys[a:b], slots[:b-a])
		t.foldSlots(slots[:b-a], 0, vals[a:b], m)
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
	if t.span == 0 {
		t.addPairsHashed(keys, vals, cmp)
		return
	}
	foldPairs(t, keys, 0, vals, cmp)
}

// foldPairs is the pair fold on a key-addressed table — AddPairs (cmp nil),
// AddPairsMasked, and FoldSum1 but for key masking — at the stored widths:
// lane i adds a[i]·m into lane 0 of key keys[i]+add's record and m into its
// count, m its mask or 1. A lane the range check refuses ends the loop, goes
// to refuse (its key is its offset from lo plus the table's lo) and the loop
// resumes. Each form is a loop of its own: sharing a frame with another
// form's loop spills the hot loop's registers.
func foldPairs[K, A vec.Number](t *AggTable, keys []K, add int64, a []A, cmp []byte) {
	lo := uint64(t.lo) - uint64(add)
	switch {
	case cmp == nil && t.packed():
		pairsPacked(t, keys, lo, a)
	case cmp == nil:
		pairsDense(t, keys, lo, a)
	case t.packed():
		pairsMaskedPacked(t, keys, lo, a, cmp)
	default:
		pairsMaskedDense(t, keys, lo, a, cmp)
	}
}

func pairsDense[K, A vec.Number](t *AggTable, keys []K, lo uint64, a []A) {
	span, n, recs, a := t.span, uint64(t.stride), t.recs, a[:len(keys)]
	for i := 0; i < len(keys); i++ {
		for ; i < len(keys); i++ {
			u := uint64(keys[i]) - lo
			if u >= span {
				break
			}
			recs[u*n] += int64(a[i])
			recs[u*n+n-1]++
		}
		if i < len(keys) {
			t.refuse(int64(uint64(keys[i])-lo)+t.lo, 0, int64(a[i]), 1)
		}
	}
}

// pairsPacked and pairsMaskedPacked add v<<32 + 1, or (v*m)<<32 + m, to a
// packed word: the value to the sum and one (m) to the count. recs is the
// groups' words, so the range check is the bounds check.
func pairsPacked[K, A vec.Number](t *AggTable, keys []K, lo uint64, a []A) {
	recs, a := t.recs[:t.span], a[:len(keys)]
	for i := 0; i < len(keys); i++ {
		for ; i < len(keys); i++ {
			u := uint64(keys[i]) - lo
			if u >= uint64(len(recs)) {
				break
			}
			recs[u] += int64(a[i])<<32 + 1
		}
		if i < len(keys) {
			t.refuse(int64(uint64(keys[i])-lo)+t.lo, 0, int64(a[i]), 1)
		}
	}
}

func pairsMaskedDense[K, A vec.Number](t *AggTable, keys []K, lo uint64, a []A, cmp []byte) {
	span, n, recs, a, cmp := t.span, uint64(t.stride), t.recs, a[:len(keys)], cmp[:len(keys)]
	for i := 0; i < len(keys); i++ {
		for ; i < len(keys); i++ {
			u, m := uint64(keys[i])-lo, int64(cmp[i])
			if u >= span {
				break
			}
			recs[u*n] += int64(a[i]) * m
			recs[u*n+n-1] += m
		}
		if i < len(keys) {
			t.refuse(int64(uint64(keys[i])-lo)+t.lo, 0, int64(a[i]), int64(cmp[i]))
		}
	}
}

func pairsMaskedPacked[K, A vec.Number](t *AggTable, keys []K, lo uint64, a []A, cmp []byte) {
	recs, a, cmp := t.recs[:t.span], a[:len(keys)], cmp[:len(keys)]
	for i := 0; i < len(keys); i++ {
		for ; i < len(keys); i++ {
			u, m := uint64(keys[i])-lo, int64(cmp[i])
			if u >= uint64(len(recs)) {
				break
			}
			recs[u] += (int64(a[i])*m)<<32 + m
		}
		if i < len(keys) {
			t.refuse(int64(uint64(keys[i])-lo)+t.lo, 0, int64(a[i]), int64(cmp[i]))
		}
	}
}
