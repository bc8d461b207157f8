package storage

import "github.com/reprolab/swole/internal/vec"

// This file dispatches the width-specialized vec kernels for a column: the
// Kind switch runs once per tile instead of once per element, so the inner
// loops are the tight per-width instantiations the paper's generated code
// would contain. Each method returns which specialized path ran so callers
// can tally variant counters.

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

// kindRange returns the value range representable at the column's width.
func kindRange(k Kind) (lo, hi int64) {
	switch k {
	case KindInt8:
		return -1 << 7, 1<<7 - 1
	case KindInt16:
		return -1 << 15, 1<<15 - 1
	case KindInt32:
		return -1 << 31, 1<<31 - 1
	default:
		return -1 << 63, 1<<63 - 1
	}
}

// CmpConstInto evaluates column[base+i] op k into out[:n] at the column's
// native width with the unrolled kernels — an int8 column eight lanes a word.
// It reports false when the constant does not fit the physical width (the
// caller falls back to the widened int64 path, which is always correct).
func (c *Column) CmpConstInto(op vec.CmpOp, k int64, base, n int, out []byte) bool {
	lo, hi := kindRange(c.Kind)
	if k < lo || k > hi {
		return false
	}
	switch c.Kind {
	case KindInt8:
		vec.CmpConstI8(op, c.I8[base:base+n], int8(k), out)
	case KindInt16:
		vec.CmpConstU(op, c.I16[base:base+n], int16(k), out)
	case KindInt32:
		vec.CmpConstU(op, c.I32[base:base+n], int32(k), out)
	default:
		vec.CmpConstU(op, c.I64[base:base+n], k, out)
	}
	return true
}

// CmpBetweenInto evaluates lo <= column[base+i] <= hi into out[:n] at the
// column's native width, an int8 column eight lanes a word. It reports false
// when either bound falls outside the physical width.
func (c *Column) CmpBetweenInto(klo, khi int64, base, n int, out []byte) bool {
	rlo, rhi := kindRange(c.Kind)
	if klo < rlo || klo > rhi || khi < rlo || khi > rhi {
		return false
	}
	switch c.Kind {
	case KindInt8:
		vec.CmpBetweenI8(c.I8[base:base+n], int8(klo), int8(khi), out)
	case KindInt16:
		vec.CmpConstBetweenU(c.I16[base:base+n], int16(klo), int16(khi), out)
	case KindInt32:
		vec.CmpConstBetweenU(c.I32[base:base+n], int32(klo), int32(khi), out)
	default:
		vec.CmpConstBetweenU(c.I64[base:base+n], klo, khi, out)
	}
	return true
}

// SumMaskedRange sums column[base+i]*cmp[i] over [base, base+n) with the
// unrolled masked-aggregation kernel at native width.
func (c *Column) SumMaskedRange(base, n int, cmp []byte) int64 {
	switch c.Kind {
	case KindInt8:
		return vec.SumMaskedU(c.I8[base:base+n], cmp)
	case KindInt16:
		return vec.SumMaskedU(c.I16[base:base+n], cmp)
	case KindInt32:
		return vec.SumMaskedU(c.I32[base:base+n], cmp)
	default:
		return vec.SumMaskedU(c.I64[base:base+n], cmp)
	}
}

// SumProdMaskedRange sums a[base+i]·b[base+i]·cmp[i] over [base, base+n),
// reading both columns in place at their stored widths: one unrolled loop per
// pair of widths, picked once per tile.
func SumProdMaskedRange(a, b *Column, base, n int, cmp []byte) int64 {
	switch a.Kind {
	case KindInt8:
		return sumProdRange(a.I8[base:base+n], b, base, cmp)
	case KindInt16:
		return sumProdRange(a.I16[base:base+n], b, base, cmp)
	case KindInt32:
		return sumProdRange(a.I32[base:base+n], b, base, cmp)
	default:
		return sumProdRange(a.I64[base:base+n], b, base, cmp)
	}
}

func sumProdRange[A vec.Number](a []A, b *Column, base int, cmp []byte) int64 {
	end := base + len(a)
	switch b.Kind {
	case KindInt8:
		return vec.SumProdMaskedU(a, b.I8[base:end], cmp)
	case KindInt16:
		return vec.SumProdMaskedU(a, b.I16[base:end], cmp)
	case KindInt32:
		return vec.SumProdMaskedU(a, b.I32[base:end], cmp)
	default:
		return vec.SumProdMaskedU(a, b.I64[base:end], cmp)
	}
}

// GatherInto reads the rows named by pos into out[:len(pos)] widened to
// int64 — the positional access of a join edge: pos holds parent-row
// positions resolved through a foreign-key index (or the selected rows of a
// tile), and the Kind switch runs once per tile, never per value.
func (c *Column) GatherInto(pos []int32, out []int64) {
	switch c.Kind {
	case KindInt8:
		gather(c.I8, pos, out)
	case KindInt16:
		gather(c.I16, pos, out)
	case KindInt32:
		gather(c.I32, pos, out)
	default:
		gather(c.I64, pos, out)
	}
}

func gather[T vec.Number](vals []T, pos []int32, out []int64) {
	if len(pos) == 0 {
		return
	}
	_ = out[len(pos)-1]
	for i, p := range pos {
		out[i] = int64(vals[p])
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
