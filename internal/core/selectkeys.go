package core

import (
	"math/bits"

	"github.com/reprolab/swole/internal/ht"
)

// Group-key resolution for the generic executor: a statement's GROUP BY
// columns become one int64 per lane, the key of the plan's single
// ht.AggTable.
//
// Packed form (the normal case). Each key column contributes a digit
// v-lo in [0, width), where [lo, lo+width) covers the column's values: the
// dictionary for string columns, the physical width for 8- and 16-bit
// columns, the measured min/max for wider ones. The digits combine
// positionally, first key most significant, so a packed key is a
// non-negative int64 — it can never be ht.NullKey — and packed-key order is
// the lexicographic order of the key columns: sorting the packed keys is
// the result order.
//
// Chained form (a composite too wide for 63 bits). Each column's values map
// to dense ids in first-seen order through a small dictionary, and ids
// chain pairwise — (id of the prefix, id of the next column) is itself a
// dictionary key — so the last level's dense id names the whole composite.
// Ids carry no order; the emission ranks each dictionary by value (a
// column's by its values, a pair level's by its halves' ranks) and sorts
// groups by the last level's rank.

// keyDict assigns dense ids to the distinct values of one chained key
// component.
type keyDict struct {
	tab  *ht.JoinTable
	vals []int64 // id -> value (a column value, or left<<31|right for a pair)
	rank []int64 // id -> position in value order; filled by groupKeys.rank
}

func (d *keyDict) id(v int64) int64 {
	if r, ok := d.tab.Probe(v); ok {
		return int64(r)
	}
	id := int32(len(d.vals))
	d.tab.Insert(v, id)
	d.vals = append(d.vals, v)
	return int64(id)
}

func (d *keyDict) reset() {
	d.tab.Reset()
	d.vals = d.vals[:0]
}

// groupKeys resolves a plan's GROUP BY columns to table keys.
type groupKeys struct {
	cols []int // tile-vector slot per key column

	// Packed form: digit origin and place value per column. byValue: a lone
	// column's values address a key-addressed table over [lo[0], lo[0]+D-1]
	// themselves, so fill packs nothing and a slot is still the packed key.
	lo      []int64
	mult    []int64
	byValue bool

	// Chained form (mult == nil): one dictionary per column, plus one per
	// pair level (pairs[0] is unused: level 0 is the first column's ids).
	dicts []keyDict
	pairs []keyDict
}

const pairShift = 31 // dense ids are int32 row counts; two fit one int64

// planGroupKeys plans the packing of key columns whose values lie in
// [lo[i], hi[i]], or the chained form when the digits' place values
// overflow 63 bits. domain is the number of distinct packed keys (0 when
// chained). The caller fills in cols and, before the first run, calls alloc.
func planGroupKeys(lo, hi []int64) (g groupKeys, domain uint64) {
	g = groupKeys{lo: lo, mult: make([]int64, len(lo))}
	domain = 1
	for i := len(lo) - 1; i >= 0; i-- {
		g.mult[i] = int64(domain)
		width := uint64(hi[i]) - uint64(lo[i]) + 1 // 0 means 2^64
		over, d := bits.Mul64(domain, width)
		if width == 0 || over != 0 || d > 1<<63 {
			return groupKeys{}, 0
		}
		domain = d
	}
	return g, domain
}

// alloc builds the chained form's dictionaries, sized for about hint
// groups. A no-op when packed.
func (g *groupKeys) alloc(hint int) {
	if g.mult != nil {
		return
	}
	g.dicts = make([]keyDict, len(g.cols))
	g.pairs = make([]keyDict, len(g.cols))
	for i := range g.cols {
		g.dicts[i].tab = ht.NewJoinTable(hint)
		if i > 0 {
			g.pairs[i].tab = ht.NewJoinTable(hint)
		}
	}
}

// fill resolves the m lanes of the tile vectors to table keys: the key
// column's own vector when it addresses the table by value, else keys after
// writing them there.
func (g *groupKeys) fill(vecs [][]int64, m int, keys []int64) []int64 {
	if g.byValue {
		return vecs[g.cols[0]][:m]
	}
	keys = keys[:m]
	if g.mult != nil {
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
	for c, slot := range g.cols {
		v := vecs[slot][:m]
		for i := range keys {
			id := g.dicts[c].id(v[i])
			if c > 0 {
				id = g.pairs[c].id(keys[i]<<pairShift | id)
			}
			keys[i] = id
		}
	}
	return keys
}

// reset empties the chained form's dictionaries for the next run.
func (g *groupKeys) reset() {
	for i := range g.dicts {
		g.dicts[i].reset()
		if i > 0 {
			g.pairs[i].reset()
		}
	}
}

// rank prepares sortKey for the chained form: every dictionary's ids are
// ranked by value through the plan's pair sorter — a column's by its
// values, a pair level's by its halves' ranks. A no-op when packed.
func (g *groupKeys) rank(sorter *groupEmit) {
	for c := range g.dicts {
		d := &g.dicts[c]
		sorter.reset()
		for id, v := range d.vals {
			sorter.add(v, int64(id))
		}
		d.setRanks(sorter)
		if c == 0 {
			continue
		}
		prev, pair := g.dicts[0].rank, &g.pairs[c]
		if c > 1 {
			prev = g.pairs[c-1].rank
		}
		sorter.reset()
		for id, v := range pair.vals {
			sorter.add(prev[v>>pairShift]<<pairShift|d.rank[v&(1<<pairShift-1)], int64(id))
		}
		pair.setRanks(sorter)
	}
}

// setRanks sorts the (order key, id) pairs collected in sorter and records
// each id's position.
func (d *keyDict) setRanks(sorter *groupEmit) {
	sorter.sortPairs()
	if cap(d.rank) < len(d.vals) {
		d.rank = make([]int64, len(d.vals)+len(d.vals)/8)
	}
	d.rank = d.rank[:len(d.vals)]
	for r := range d.rank {
		d.rank[sorter.pairs[2*r+1]] = int64(r)
	}
}

// sortKey maps a table key to its position in result order.
func (g *groupKeys) sortKey(key int64) int64 {
	switch n := len(g.cols); {
	case g.mult != nil:
		return key
	case n == 1:
		return g.dicts[0].rank[key]
	default:
		return g.pairs[n-1].rank[key]
	}
}

// decode writes the key columns' values of a table key into lane r of the
// key columns' vectors out[0], out[1], ….
func (g *groupKeys) decode(key int64, out [][]int64, r int) {
	if g.mult != nil {
		last := len(g.cols) - 1
		for c := range last {
			q := key / g.mult[c]
			key -= q * g.mult[c]
			out[c][r] = g.lo[c] + q
		}
		out[last][r] = g.lo[last] + key // the last place value is 1
		return
	}
	for c := len(g.cols) - 1; c > 0; c-- {
		v := g.pairs[c].vals[key]
		out[c][r] = g.dicts[c].vals[v&(1<<pairShift-1)]
		key = v >> pairShift
	}
	out[0][r] = g.dicts[0].vals[key]
}
