package vec

import (
	"math"
	"slices"
	"unsafe"
)

// Filters in one pass (paper §III-A, Fig. 3: the predicate evaluated in the
// access loop). A Filter is a conjunction of clauses, each an OR of leaves,
// and a leaf is one range compare of a stored int8 or int16 column: a lane
// passes where lo <= x <= hi, XOR not. Every compare against constants is
// that range (CmpRange): each operator, BETWEEN and each item of an IN list,
// clamped to the column's width. The kernel (filter_amd64.s) takes 64 lanes
// a step: it evaluates every leaf in registers — VPCMPGTB over int8 lanes,
// VPCMPGTW then VPACKSSWB and VPERMQ over int16 ones — ORs the leaves of a
// clause, ANDs the clauses, and stores the step's mask bytes, each 0 or 1
// (Eval), or folds them (Fold: value masking as the one loop of Fig. 3): it
// counts them and pair-sums int8 a·b or a over them into int32 lanes, exact
// by the stored widths over a tile. A run of lanes that is not a whole number
// of steps ends with one more step over its last 64 lanes, whose fold skips
// the lanes taken before. CmpRangeU, the one compare of a column against
// constants, runs the same kernel with one leaf over int8 and int16 tiles of
// 32 lanes or more, and unroll.go's loops over every other tile. A build
// without the kernel (HasAVX2 false) has no Filter: Eval and Fold report
// false, and the callers keep to the Go loops.

// FilterLeaf is one compare of a Filter: a lane of the column passes where
// Lo <= x <= Hi, or where it does not under Not. Exactly
// one of I8 and I16 holds the column. A bound outside the column's width
// clamps to it, so a leaf may pass every lane or none.
type FilterLeaf struct {
	I8     []int8
	I16    []int16
	Lo, Hi int64
	Not    bool
	Dict   bool // the lanes are dictionary codes (Counters.DictKeys)
}

// Filter is a compiled conjunction of clauses of leaves. The zero Filter has
// no leaves and evaluates nothing; Grow, then Add and EndClause per clause,
// build one. Eval only reads it, so workers share one.
type Filter struct {
	steps []filterLeaf
	rows  int       // lanes every leaf's column holds
	cmp   [2]uint64 // leaves by width: int8, int16
	dict  uint64    // leaves over dictionary codes
}

// filterLeaf is a leaf as the kernel reads it, 128 bytes: the bounds and the
// not mask broadcast to a step's lanes, the column's first lane, and flags
// (leafWide: int16 lanes; leafEnd and leafFirst: the last and the first
// leaf of its clause).
type filterLeaf struct {
	lo, hi, not [32]byte
	x           unsafe.Pointer
	flags       uint64
	_           [16]byte
}

const (
	leafWide = 1 << iota
	leafEnd
	leafFirst
)

// CmpRange is x op c as lo <= x <= hi XOR not: x <> c is x = c under not,
// and x < MinInt64 and x > MaxInt64 are the empty range [1, 0].
func CmpRange(op CmpOp, c int64) (lo, hi int64, not bool) {
	switch op {
	case LT:
		if c == math.MinInt64 {
			return 1, 0, false
		}
		return math.MinInt64, c - 1, false
	case LE:
		return math.MinInt64, c, false
	case GT:
		if c == math.MaxInt64 {
			return 1, 0, false
		}
		return c + 1, math.MaxInt64, false
	case GE:
		return c, math.MaxInt64, false
	}
	return c, c, op == NE
}

// width is the range of values a T holds.
func width[T Number]() (lo, hi int64) {
	bits := 8 * unsafe.Sizeof(T(0))
	return -1 << (bits - 1), 1<<(bits-1) - 1
}

// clampRange is lo <= x <= hi XOR not for x a T: the range clamped to T's
// width, an empty one as the full width under the opposite not, so that lo
// <= hi always.
func clampRange[T Number](lo, hi int64, not bool) (int64, int64, bool) {
	wlo, whi := width[T]()
	if lo, hi = max(lo, wlo), min(hi, whi); lo > hi {
		return wlo, whi, !not
	}
	return lo, hi, not
}

// set fills the leaf for the column at x, int16 lanes when wide, with the
// range clamped to the width.
func (l *filterLeaf) set(x unsafe.Pointer, wide bool, lo, hi int64, not bool) {
	lane, rep := uint64(0xff), uint64(ones)
	if l.x, l.flags = x, 0; wide {
		lane, rep, l.flags = 0xffff, 0x0001000100010001, leafWide
		lo, hi, not = clampRange[int16](lo, hi, not)
	} else {
		lo, hi, not = clampRange[int8](lo, hi, not)
	}
	// Each bound in every lane of a word, stored four words a vector.
	lw, hw, nw := (uint64(lo)&lane)*rep, (uint64(hi)&lane)*rep, -uint64(b2i(not))
	for i := 0; i < 32; i += 8 {
		le.PutUint64(l.lo[i:], lw)
		le.PutUint64(l.hi[i:], hw)
		le.PutUint64(l.not[i:], nw)
	}
}

// Grow makes room for n more leaves.
func (f *Filter) Grow(n int) { f.steps = slices.Grow(f.steps, n) }

// Add appends a leaf to the clause being built.
func (f *Filter) Add(l FilterLeaf) {
	first := len(f.steps) == 0 || f.steps[len(f.steps)-1].flags&leafEnd != 0
	if len(f.steps) == 0 {
		f.rows = math.MaxInt
	}
	x, rows, wide := unsafe.Pointer(unsafe.SliceData(l.I8)), len(l.I8), l.I8 == nil
	if wide {
		x, rows = unsafe.Pointer(unsafe.SliceData(l.I16)), len(l.I16)
	}
	f.steps = append(f.steps, filterLeaf{})
	s := &f.steps[len(f.steps)-1]
	s.set(x, wide, l.Lo, l.Hi, l.Not)
	f.rows = min(f.rows, rows)
	if first {
		s.flags |= leafFirst
	}
	f.cmp[b2i(wide)]++
	if l.Dict {
		f.dict++
	}
}

// EndClause closes the clause being built, which holds at least one leaf.
func (f *Filter) EndClause() { f.steps[len(f.steps)-1].flags |= leafEnd }

// Eval writes out[i] = 1 where row base+i passes the filter and 0 where it
// does not, for i < n, and reports whether it ran: not for an empty Filter,
// on a build without the kernel, or for fewer than 32 lanes. Rows past the
// columns panic.
func (f *Filter) Eval(base, n int, out []byte) bool {
	if len(f.steps) == 0 || !HasAVX2 || n < 32 {
		return false
	}
	if base < 0 || n > f.rows-base {
		panic("vec: Filter.Eval past its columns")
	}
	_ = out[n-1]
	filterSteps(&f.steps[0], len(f.steps), base, n, &out[0], nil, nil)
	return true
}

// Fold returns the number of rows base+i, i < n, that pass the filter and
// the sum over them of a[base+i]*b[base+i], of a[base+i] where b is nil, 0
// where a is nil, and reports whether it ran, where Eval would. It runs the
// kernel a tile at a time, over which the int32 lane sums are exact. Rows
// past the columns, a's and b's included, panic.
func (f *Filter) Fold(base, n int, a, b []int8) (count, sum int64, ok bool) {
	if len(f.steps) == 0 || !HasAVX2 || n < 32 {
		return 0, 0, false
	}
	if base < 0 || n > f.rows-base || a != nil && n > len(a)-base || b != nil && n > len(b)-base {
		panic("vec: Filter.Fold past its columns")
	}
	for end := base + n; base < end; {
		m := end - base
		if m >= TileSize+32 {
			m = TileSize
		}
		c, s := filterSteps(&f.steps[0], len(f.steps), base, m, nil, unsafe.SliceData(a), unsafe.SliceData(b))
		count, sum, base = count+c, sum+s, base+m
	}
	return count, sum, true
}

// Leaves is the number of leaves the filter compares.
func (f *Filter) Leaves() int { return len(f.steps) }

// Count tallies one tile of the filter: a compare tile per leaf at its
// width, and a dictionary-key tile per leaf over codes.
func (f *Filter) Count(c *Counters) {
	c.Cmp[0] += f.cmp[0]
	c.Cmp[1] += f.cmp[1]
	c.DictKeys += f.dict
}

// String names the filter by its leaves' widths — clauses joined by ",",
// the leaves of a clause by "|" — and its variant: cmp(i8|i8|i16,i16)/avx2.
func (f *Filter) String() string {
	b := append(make([]byte, 0, 32), "cmp("...)
	for i, s := range f.steps {
		switch {
		case i == 0:
		case f.steps[i-1].flags&leafEnd != 0:
			b = append(b, ',')
		default:
			b = append(b, '|')
		}
		b = append(b, [2]string{"i8", "i16"}[s.flags&leafWide]...)
	}
	return string(append(b, ")/avx2"...))
}

// CmpRangeU writes out[i] = (lo <= vals[i] <= hi) XOR not at the lanes'
// stored width, a bound past the width clamped to it. Over 32 or more int8
// or int16 lanes where HasAVX2 it runs the Filter kernel with one leaf, whose
// last step overlaps the one before. Every other tile takes one of unroll.go's
// loops: an operator where a bound is at the width's end or lo = hi, else
// BETWEEN, negated by a second pass under not.
func CmpRangeU[T Number](vals []T, lo, hi int64, not bool, out []byte) {
	n, size := len(vals), unsafe.Sizeof(T(0))
	if HasAVX2 && n >= 32 && size <= 2 {
		_ = out[n-1]
		var l filterLeaf
		l.set(unsafe.Pointer(unsafe.SliceData(vals)), size == 2, lo, hi, not)
		l.flags |= leafFirst | leafEnd
		filterSteps(&l, 1, 0, n, &out[0], nil, nil)
		return
	}
	lo, hi, not = clampRange[T](lo, hi, not)
	wlo, whi := width[T]()
	switch l, h := T(lo), T(hi); {
	case lo == wlo && hi == whi:
		Fill(out[:n], b2i(!not))
	case lo == hi && not:
		CmpConstNEU(vals, l, out)
	case lo == hi:
		CmpConstEQU(vals, l, out)
	case lo == wlo && not:
		CmpConstGTU(vals, h, out)
	case lo == wlo:
		CmpConstLEU(vals, h, out)
	case hi == whi && not:
		CmpConstLTU(vals, l, out)
	case hi == whi:
		CmpConstGEU(vals, l, out)
	default:
		CmpConstBetweenU(vals, l, h, out)
		if not {
			Not(out[:n])
		}
	}
}
