package vec

import (
	"fmt"
	"math"
	"testing"
)

// FuzzFusedScalar holds the filter kernel's fold (Filter.Fold) to the mask
// path it replaces: CmpRangeU per leaf, And or Or, CountOnes, and SumMaskedU
// or SumProdMaskedU over the mask. A leaf is a range: each operator through
// CmpRange, and BETWEEN the fuzzer's two constants. The bits of form put the
// operators (bit 0) and BETWEEN (bit 1) under NOT, and make the first leaf's
// column (bit 2) and the second's (bit 3) int16, else int8. Every leaf alone,
// every pair ANDed and ORed, and a two-item IN (under NOT, a conjunction of
// two <>) run at the fuzzer's constants, at each width's ends, reversed, and
// one past each, folding the count alone, sum(a) and sum(a*b) over int8 lanes
// that start at any of 32 offsets into their backing arrays and number 0 to
// 2·TileSize+15 (the kernel steps 64 lanes, and Fold splits at TileSize).
// Every 17th lane of each column is its width's minimum and every 19th its
// maximum.
func FuzzFusedScalar(f *testing.F) {
	f.Add([]byte{3, 200, 50, 1, 0x80, 0x7f}, uint8(0), uint16(1), int16(50), int16(1), uint8(0))
	f.Add([]byte{0x80, 0x7f, 0xff, 0}, uint8(1), uint16(15), int16(-128), int16(127), uint8(0))
	f.Add([]byte{9}, uint8(7), uint16(17), int16(0), int16(-1), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(31), uint16(TileSize-1), int16(127), int16(-128), uint8(0))
	f.Add([]byte{0x55, 0xaa}, uint8(5), uint16(TileSize), int16(20), int16(99), uint8(0))
	f.Add([]byte{}, uint8(3), uint16(2*TileSize+15), int16(-7), int16(7), uint8(0))
	// BETWEEN, NOT and constants past int8's ends.
	f.Add([]byte{7, 0x90, 33}, uint8(2), uint16(100), int16(-300), int16(40), uint8(2))
	f.Add([]byte{0x81, 0x7e}, uint8(9), uint16(TileSize+5), int16(10), int16(200), uint8(3))
	f.Add([]byte{4}, uint8(0), uint16(64), int16(1000), int16(-1000), uint8(1))
	// int16 columns, first, second or both, at lengths around a step.
	f.Add([]byte{0x12, 0x34, 0x56}, uint8(4), uint16(63), int16(-2000), int16(9000), uint8(4))
	f.Add([]byte{0xfe, 0x01}, uint8(11), uint16(65), int16(300), int16(-300), uint8(9))
	f.Add([]byte{0x40, 0xc0, 0x7f}, uint8(30), uint16(TileSize+32), int16(math.MinInt16), int16(math.MaxInt16), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, n uint16, c1, c2 int16, form uint8) {
		if !HasAVX2 {
			t.Skip("no AVX2: Filter has no kernel on this CPU")
		}
		o, l := int(off%32), int(n)%(2*TileSize+16)
		col8 := func(salt int) []int8 {
			v := make([]int8, o+l)[o:]
			for i := range v {
				switch {
				case i%17 == 0:
					v[i] = math.MinInt8
				case i%19 == 0:
					v[i] = math.MaxInt8
				case len(data) > 0:
					v[i] = int8(data[(i+salt)%len(data)] + byte(i*salt))
				}
			}
			return v
		}
		col := func(wide bool, salt int) FilterLeaf {
			if !wide {
				return FilterLeaf{I8: col8(salt)}
			}
			v := make([]int16, o+l)[o:]
			for i := range v {
				switch {
				case i%17 == 0:
					v[i] = math.MinInt16
				case i%19 == 0:
					v[i] = math.MaxInt16
				case len(data) > 0:
					v[i] = int16(uint16(data[(i+salt)%len(data)])<<8|uint16(data[(i*salt)%len(data)])) + int16(i)
				}
			}
			return FilterLeaf{I16: v}
		}
		x, y, a, b := col(form&4 != 0, 0), col(form&8 != 0, 1), col8(2), col8(3)
		m, my := make([]byte, l), make([]byte, l)
		mask := func(out []byte, lf FilterLeaf) {
			if lf.I8 != nil {
				CmpRangeU(lf.I8, lf.Lo, lf.Hi, lf.Not, out)
			} else {
				CmpRangeU(lf.I16, lf.Lo, lf.Hi, lf.Not, out)
			}
		}
		// check folds the filter of clauses over the fuzzed lanes against m.
		check := func(what string, clauses ...[]FilterLeaf) {
			t.Helper()
			var f Filter
			for _, c := range clauses {
				for _, lf := range c {
					f.Add(lf)
				}
				f.EndClause()
			}
			cnt := int64(CountOnes(m))
			for _, fd := range [][2][]int8{{nil, nil}, {a, nil}, {a, b}} {
				var sum int64
				switch {
				case fd[1] != nil:
					sum = SumProdMaskedU(fd[0], fd[1], m)
				case fd[0] != nil:
					sum = SumMaskedU(fd[0], m)
				}
				gc, gs, ok := f.Fold(0, l, fd[0], fd[1])
				if !ok && l >= 32 || ok && (gc != cnt || gs != sum) {
					t.Fatalf("%s over %s, off %d, %d lanes, a %t, b %t: ran %t, count %d sum %d, mask path %d %d",
						what, f.String(), o, l, fd[0] != nil, fd[1] != nil, ok, gc, gs, cnt, sum)
				}
			}
		}
		// leaves are a column's compares at constant k: each operator, and
		// BETWEEN k and k2.
		leaves := func(c FilterLeaf, k, k2 int64) (ls []FilterLeaf) {
			for op := LT; op <= NE; op++ {
				lo, hi, not := CmpRange(op, k)
				c.Lo, c.Hi, c.Not = lo, hi, not != (form&1 != 0)
				ls = append(ls, c)
			}
			c.Lo, c.Hi, c.Not = k, k2, form&2 != 0
			return append(ls, c)
		}
		// consts are the fuzzer's constants, the column's width's ends,
		// reversed, and one past each.
		consts := func(c FilterLeaf) [4][2]int64 {
			lo, hi := width[int8]()
			if c.I8 == nil {
				lo, hi = width[int16]()
			}
			return [4][2]int64{{int64(c1), int64(c2)}, {lo, hi}, {hi, lo}, {lo - 1, hi + 1}}
		}
		name := func(ls ...FilterLeaf) (s string) {
			for _, lf := range ls {
				s += fmt.Sprintf("[%d, %d] not %t; ", lf.Lo, lf.Hi, lf.Not)
			}
			return s
		}
		for i := range 4 {
			kx, ky := consts(x)[i], consts(y)[i]
			for _, l1 := range leaves(x, kx[0], kx[1]) {
				mask(m, l1)
				check(name(l1), []FilterLeaf{l1})
				for _, l2 := range leaves(y, ky[0], ky[1]) {
					mask(m, l1)
					mask(my, l2)
					And(m, my)
					check("AND "+name(l1, l2), []FilterLeaf{l1}, []FilterLeaf{l2})
					mask(m, l1)
					Or(m, my)
					check("OR "+name(l1, l2), []FilterLeaf{l1, l2})
				}
			}
			// x IN (k0, k1), or under NOT x <> k0 AND x <> k1.
			in := [2]FilterLeaf{x, x}
			for j := range in {
				in[j].Lo, in[j].Hi, in[j].Not = kx[j], kx[j], form&1 != 0
			}
			mask(m, in[0])
			mask(my, in[1])
			if form&1 != 0 {
				And(m, my)
				check("NOT IN "+name(in[:]...), in[:1], in[1:])
			} else {
				Or(m, my)
				check("IN "+name(in[:]...), in[:])
			}
		}
	})
}
