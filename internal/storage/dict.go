package storage

import (
	"slices"
	"strings"
)

// Dict is an order-preserving string dictionary: code i corresponds to the
// i-th smallest distinct value, so comparisons on codes mirror comparisons
// on strings. It holds only the sorted values; a lookup is a binary search.
type Dict struct {
	values []string
}

// NewDict builds a dictionary over a vocabulary, deduplicated and ordered
// by bytes. A strictly ascending vocabulary is taken as it is after one
// linear check, and the dictionary then keeps the slice: the caller must not
// change it. Any other input is sorted and deduplicated by BuildDict.
func NewDict(vocab []string) *Dict {
	for i := 1; i < len(vocab); i++ {
		if vocab[i-1] >= vocab[i] {
			d, _ := BuildDict(vocab)
			return d
		}
	}
	return &Dict{values: vocab}
}

// BuildDict assigns lexicographically ordered codes to the distinct values
// of vals and returns the dictionary together with the code of each value.
// One sort of the positions of vals both finds the distinct values and
// numbers them: walking the sorted positions, a value unequal to the last
// distinct one starts the next code, and its position is kept in the
// sorted prefix the walk has already read.
func BuildDict(vals []string) (*Dict, []int32) {
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(vals[a], vals[b]) })
	codes := make([]int32, len(vals))
	k := 0
	for _, i := range order {
		if k == 0 || vals[i] != vals[order[k-1]] {
			order[k] = i
			k++
		}
		codes[i] = int32(k - 1)
	}
	values := make([]string, k)
	for c, i := range order[:k] {
		values[c] = vals[i]
	}
	return &Dict{values: values}, codes
}

// Len returns the number of distinct values.
func (d *Dict) Len() int { return len(d.values) }

// Value decodes a code back to its string.
func (d *Dict) Value(code int) string { return d.values[code] }

// Code returns the code for s and whether s occurs in the dictionary.
func (d *Dict) Code(s string) (int64, bool) {
	i, ok := slices.BinarySearch(d.values, s)
	return int64(i), ok
}

// CodeBytes is Code for a byte slice. The search is written out because
// string(b) compared against a string does not allocate (the compiler
// converts in place for a comparison), which is what keeps the ingestion
// kernels' dictionary lookups off the heap.
func (d *Dict) CodeBytes(b []byte) (int64, bool) {
	lo, hi := 0, len(d.values)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d.values[m] < string(b) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int64(lo), lo < len(d.values) && d.values[lo] == string(b)
}

// MatchPred evaluates an arbitrary string predicate once per *distinct*
// value and returns a code-indexed 0/1 table. This is how string-matching
// predicates (e.g. TPC-H Q13's NOT LIKE, Q14's PROMO%, Q19's lists) become
// O(1) code lookups at scan time: the precomputed lookup table of Data
// Blocks applied to dictionary codes.
func (d *Dict) MatchPred(pred func(string) bool) []byte {
	out := make([]byte, len(d.values))
	for i, v := range d.values {
		if pred(v) {
			out[i] = 1
		}
	}
	return out
}
