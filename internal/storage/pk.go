package storage

import "fmt"

// pkLocator maps each value of a primary-key column to its row. A key range
// of at most compactSlack slots per row is a positional array over the range;
// a wider one is a map. Building it checks the keys distinct, so one pass
// serves a foreign-key index's build (BuildFKIndex), its extension on every
// child append (ExtendFKIndex) and the uniqueness check of a parent append
// (ValidateUniqueKey).
type pkLocator struct {
	lo   int64
	at   []int32         // compact form: at[k-lo] is key k's row + 1, 0 when absent
	rows map[int64]int32 // sparse form (at == nil)
}

// compactSlack bounds the positional array's slots per key row.
const compactSlack = 4

// locatePK builds the locator of the key column c; where names the column in
// the error a repeated key gets.
func locatePK(c *Column, where string) (pkLocator, error) {
	n := c.Len()
	lo, hi := c.Range()
	if span := uint64(hi) - uint64(lo); n > 0 && span < compactSlack*uint64(n) {
		l := pkLocator{lo: lo, at: make([]int32, span+1)}
		for i := range n {
			k := c.Get(i)
			if s := &l.at[k-lo]; *s == 0 {
				*s = int32(i) + 1
			} else {
				return pkLocator{}, errDuplicateKey(k, where)
			}
		}
		return l, nil
	}
	l := pkLocator{rows: make(map[int64]int32, n)}
	for i := range n {
		k := c.Get(i)
		if _, dup := l.rows[k]; dup {
			return pkLocator{}, errDuplicateKey(k, where)
		}
		l.rows[k] = int32(i)
	}
	return l, nil
}

func errDuplicateKey(k int64, where string) error {
	return fmt.Errorf("storage: duplicate primary key %d in %s", k, where)
}

// row returns key k's row, or false when no row holds k.
func (l *pkLocator) row(k int64) (int32, bool) {
	if l.at == nil {
		r, ok := l.rows[k]
		return r, ok
	}
	if u := uint64(k) - uint64(l.lo); u < uint64(len(l.at)) && l.at[u] > 0 {
		return l.at[u] - 1, true
	}
	return 0, false
}
