package core

import (
	"errors"
	"math/bits"
)

// Group-key resolution for the generic executor: a statement's GROUP BY
// columns become one int64 per lane, the key of the plan's single
// ht.AggTable.
//
// Each key column contributes a digit v-lo in [0, width), where
// [lo, lo+width) covers the column's values: the dictionary for string
// columns, the physical width for 8- and 16-bit columns, the measured
// min/max for wider ones. The digits combine positionally, first key most
// significant, so a packed key is a non-negative int64 — it can never be
// ht.NullKey — and packed-key order is the lexicographic order of the key
// columns: sorting the packed keys is the result order. Keys whose digits
// need more than 63 bits — a composite of wide columns, or one column
// spanning more than 2^63 values — do not pack: the compile refuses the
// statement (ErrKeysUnpacked), which then answers on the interpreter.

// ErrKeysUnpacked reports GROUP BY columns whose values do not pack into one
// non-negative int64: the statement has no compiled plan.
var ErrKeysUnpacked = errors.New("core: group keys do not pack into 63 bits")

// groupKeys resolves a plan's GROUP BY columns to table keys.
type groupKeys struct {
	cols []int // tile-vector slot per key column

	// Digit origin and place value per column. byValue: a lone column's
	// values address a key-addressed table over [lo[0], lo[0]+D-1]
	// themselves, so fill packs nothing and a slot is still the packed key.
	lo      []int64
	mult    []int64
	byValue bool
}

// planGroupKeys plans the packing of key columns whose values lie in
// [lo[i], hi[i]], returning the number of distinct packed keys, or
// ErrKeysUnpacked when the digits' place values overflow 63 bits. The caller
// fills in cols.
func planGroupKeys(lo, hi []int64) (g groupKeys, domain uint64, err error) {
	g = groupKeys{lo: lo, mult: make([]int64, len(lo))}
	domain = 1
	for i := len(lo) - 1; i >= 0; i-- {
		g.mult[i] = int64(domain)
		width := uint64(hi[i]) - uint64(lo[i]) + 1 // 0 means 2^64
		over, d := bits.Mul64(domain, width)
		if width == 0 || over != 0 || d > 1<<63 {
			return groupKeys{}, 0, ErrKeysUnpacked
		}
		domain = d
	}
	return g, domain, nil
}

// fill resolves the m lanes of the tile vectors to table keys: the key
// column's own vector when it addresses the table by value, else keys after
// writing them there.
func (g *groupKeys) fill(vecs [][]int64, m int, keys []int64) []int64 {
	if g.byValue {
		return vecs[g.cols[0]][:m]
	}
	keys = keys[:m]
	for c, slot := range g.cols {
		v, lo, mult := vecs[slot][:m], g.lo[c], g.mult[c]
		if c == 0 {
			for i := range keys {
				keys[i] = (v[i] - lo) * mult
			}
		} else {
			for i := range keys {
				keys[i] += (v[i] - lo) * mult
			}
		}
	}
	return keys
}

// decode writes the key columns' values of a table key into lane r of the
// key columns' vectors out[0], out[1], ….
func (g *groupKeys) decode(key int64, out [][]int64, r int) {
	last := len(g.cols) - 1
	for c := range last {
		q := key / g.mult[c]
		key -= q * g.mult[c]
		out[c][r] = g.lo[c] + q
	}
	out[last][r] = g.lo[last] + key // the last place value is 1
}
