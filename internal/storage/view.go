package storage

import "fmt"

// Row-range views. A view of a table is an ordinary *Table whose columns
// are re-slices of the full table's arrays — no data is copied, the
// dictionary is shared, and the view stays valid for as long as the arrays
// it references are reachable. The write paths use them to address the
// rows an append added (statistics merge over the delta only) and the rows
// a row-range replacement keeps.

// Slice returns a view of values [lo, hi) sharing the backing array and
// dictionary.
func (c *Column) Slice(lo, hi int) *Column {
	out := &Column{Name: c.Name, Kind: c.Kind, Log: c.Log, Dict: c.Dict}
	switch c.Kind {
	case KindInt8:
		out.I8 = c.I8[lo:hi:hi]
	case KindInt16:
		out.I16 = c.I16[lo:hi:hi]
	case KindInt32:
		out.I32 = c.I32[lo:hi:hi]
	default:
		out.I64 = c.I64[lo:hi:hi]
	}
	return out
}

// Slice returns a view of rows [lo, hi) of the table under the same name,
// sharing every column's backing array.
func (t *Table) Slice(lo, hi int) (*Table, error) {
	if lo < 0 || hi < lo || hi > t.Rows() {
		return nil, fmt.Errorf("storage: table %s: slice [%d, %d) out of range 0..%d", t.Name, lo, hi, t.Rows())
	}
	cols := make([]*Column, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Slice(lo, hi)
	}
	return NewTable(t.Name, cols...)
}
