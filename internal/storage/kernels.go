package storage

import "github.com/reprolab/swole/internal/vec"

// This file dispatches the width-specialized vec kernels for a column: the
// Kind switch runs once per tile instead of once per element, so the inner
// loops are the tight per-width instantiations the paper's generated code
// would contain. A kernel generic over the width reads a column in place
// through Stored, instantiated once per plan at its column's width.

// WidenInto copies rows [base, base+n) into out[:n] widened to int64 using
// the unrolled width-specialized kernel.
func (c *Column) WidenInto(base, n int, out []int64) {
	switch c.Kind {
	case KindInt8:
		vec.WidenU(c.I8[base:base+n], out)
	case KindInt16:
		vec.WidenU(c.I16[base:base+n], out)
	case KindInt32:
		vec.WidenU(c.I32[base:base+n], out)
	default:
		copy(out[:n], c.I64[base:base+n])
	}
}

// Stored returns rows [base, base+n) of the column as stored: T must be its
// width's type (int8, int16, int32 or int64), or Stored panics. A kernel
// generic over the width reads the column in place through it.
func Stored[T vec.Number](c *Column, base, n int) []T {
	var p any = &c.I64
	switch c.Kind {
	case KindInt8:
		p = &c.I8
	case KindInt16:
		p = &c.I16
	case KindInt32:
		p = &c.I32
	}
	return (*p.(*[]T))[base : base+n]
}

// CmpRangeInto writes out[i] = (lo <= column[base+i] <= hi) XOR not for i <
// n at the column's stored width (vec.CmpRangeU, a range from vec.CmpRange):
// a bound past the width clamps to it.
func (c *Column) CmpRangeInto(lo, hi int64, not bool, base, n int, out []byte) {
	switch c.Kind {
	case KindInt8:
		vec.CmpRangeU(c.I8[base:base+n], lo, hi, not, out)
	case KindInt16:
		vec.CmpRangeU(c.I16[base:base+n], lo, hi, not, out)
	case KindInt32:
		vec.CmpRangeU(c.I32[base:base+n], lo, hi, not, out)
	default:
		vec.CmpRangeU(c.I64[base:base+n], lo, hi, not, out)
	}
}

// GatherInto reads the rows named by pos into out[:len(pos)] widened to
// int64 — the positional access of a join edge: pos holds parent-row
// positions resolved through a foreign-key index (or the selected rows of a
// tile), and the Kind switch runs once per tile, never per value.
func (c *Column) GatherInto(pos []int32, out []int64) { c.GatherSelInto(0, nil, pos, out) }

// GatherSelInto reads one row for each lane j of sel into out[:len(sel)]
// widened to int64, at the column's stored width (vec.GatherSel): row
// base+sel[j] — a root column's selected rows of the tile from row base — or,
// when src is given, row base+src[sel[j]] — a parent column, src the tile's
// lane-indexed parent positions.
func (c *Column) GatherSelInto(base int, src, sel []int32, out []int64) {
	switch c.Kind {
	case KindInt8:
		vec.GatherSel(c.I8[base:], src, sel, out)
	case KindInt16:
		vec.GatherSel(c.I16[base:], src, sel, out)
	case KindInt32:
		vec.GatherSel(c.I32[base:], src, sel, out)
	default:
		vec.GatherSel(c.I64[base:], src, sel, out)
	}
}

// Range returns the smallest and largest value the column holds, (0, 0)
// for an empty column. Group-key packing sizes a key component's digit from
// it when the physical width alone would not fit.
func (c *Column) Range() (lo, hi int64) {
	switch c.Kind {
	case KindInt8:
		return valueRange(c.I8)
	case KindInt16:
		return valueRange(c.I16)
	case KindInt32:
		return valueRange(c.I32)
	default:
		return valueRange(c.I64)
	}
}

func valueRange[T vec.Number](vals []T) (lo, hi int64) {
	if len(vals) == 0 {
		return 0, 0
	}
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return int64(mn), int64(mx)
}
