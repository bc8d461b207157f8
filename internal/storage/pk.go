package storage

import (
	"fmt"
	"slices"

	"github.com/reprolab/swole/internal/vec"
)

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

// parentRows appends to dst the parent row of each key in fk[from:],
// reading the column at its stored width. When a key has no parent row it
// stops there and returns that key's row in fk as missing; otherwise
// missing is -1. An index build starts from an empty dst and row 0; an
// extension passes the index so far and the first row it does not cover.
func (l *pkLocator) parentRows(dst []int32, fk *Column, from int) (out []int32, missing int) {
	switch fk.Kind {
	case KindInt8:
		out, missing = rowsAt(l, dst, fk.I8[from:])
	case KindInt16:
		out, missing = rowsAt(l, dst, fk.I16[from:])
	case KindInt32:
		out, missing = rowsAt(l, dst, fk.I32[from:])
	default:
		out, missing = rowsAt(l, dst, fk.I64[from:])
	}
	if missing >= 0 {
		missing += from
	}
	return out, missing
}

// rowsAt is parentRows at one stored key width, one loop per locator form;
// missing is the position in fk of the first key without a parent row, or
// -1.
func rowsAt[T vec.Number](l *pkLocator, dst []int32, fk []T) (out []int32, missing int) {
	n := len(dst)
	out = slices.Grow(dst, len(fk))[:n+len(fk)]
	rows := out[n:]
	if l.at == nil {
		for i, k := range fk {
			r, ok := l.rows[int64(k)]
			if !ok {
				return out, i
			}
			rows[i] = r
		}
		return out, -1
	}
	at, lo := l.at, uint64(l.lo)
	for i, k := range fk {
		u := uint64(int64(k)) - lo
		if u >= uint64(len(at)) || at[u] == 0 {
			return out, i
		}
		rows[i] = at[u] - 1
	}
	return out, -1
}
