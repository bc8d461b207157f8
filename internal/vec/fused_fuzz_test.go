package vec

import (
	"fmt"
	"math"
	"testing"
)

// FuzzFusedScalar holds the fused int8 loop (SumFusedI8) to the mask path it
// replaces: CmpRangeU per compare, And, CountOnes, and SumMaskedU or
// SumProdMaskedU over the mask. A compare is a range leaf: each operator
// through CmpRange, and BETWEEN the fuzzer's two constants. The constants
// are int16, so they reach past int8's ends (the leaves clamp), and the bits
// of form put the operators (bit 0) and BETWEEN (bit 1) under NOT. Every
// pair of leaves, and every leaf alone, runs at the fuzzer's constants, at
// -128 and 127 and one past each, folding the count alone, sum(a) and
// sum(a*b), over lanes that start at any of 32 offsets into their backing
// arrays and number 0 to 2·TileSize+15 (the kernel steps 16 lanes, and
// SumFusedI8 splits at TileSize). Every 17th lane of each column is -128 and
// every 19th 127.
func FuzzFusedScalar(f *testing.F) {
	f.Add([]byte{3, 200, 50, 1, 0x80, 0x7f}, uint8(0), uint16(1), int16(50), int16(1), uint8(0))
	f.Add([]byte{0x80, 0x7f, 0xff, 0}, uint8(1), uint16(15), int16(-128), int16(127), uint8(0))
	f.Add([]byte{9}, uint8(7), uint16(17), int16(0), int16(-1), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(31), uint16(TileSize-1), int16(127), int16(-128), uint8(0))
	f.Add([]byte{0x55, 0xaa}, uint8(5), uint16(TileSize), int16(20), int16(99), uint8(0))
	f.Add([]byte{}, uint8(3), uint16(2*TileSize+15), int16(-7), int16(7), uint8(0))
	// BETWEEN, NOT and constants past int8's ends, as the fused key admits them.
	f.Add([]byte{7, 0x90, 33}, uint8(2), uint16(100), int16(-300), int16(40), uint8(2))
	f.Add([]byte{0x81, 0x7e}, uint8(9), uint16(TileSize+5), int16(10), int16(200), uint8(3))
	f.Add([]byte{4}, uint8(0), uint16(64), int16(1000), int16(-1000), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, n uint16, c1, c2 int16, form uint8) {
		if !HasAVX2 {
			t.Skip("no AVX2: SumFusedI8 has no kernel on this CPU")
		}
		o, l := int(off%32), int(n)%(2*TileSize+16)
		col := func(salt int) []int8 {
			whole := make([]int8, o+l)
			v := whole[o:]
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
		x, y, a, b := col(0), col(1), col(2), col(3)
		m, my := make([]byte, l), make([]byte, l)
		type fold struct{ a, b []int8 }
		folds := []fold{{nil, nil}, {a, nil}, {a, b}}
		check := func(what string, cx, cy FilterLeaf) {
			t.Helper()
			cnt := int64(CountOnes(m))
			for _, fd := range folds {
				var sum int64
				switch {
				case fd.b != nil:
					sum = SumProdMaskedU(fd.a, fd.b, m)
				case fd.a != nil:
					sum = SumMaskedU(fd.a, m)
				}
				gc, gs := SumFusedI8(cx, cy, fd.a, fd.b)
				if gc != cnt || gs != sum {
					t.Fatalf("%s, off %d, %d lanes, a %t, b %t: count %d sum %d, mask path %d %d",
						what, o, l, fd.a != nil, fd.b != nil, gc, gs, cnt, sum)
				}
			}
		}
		// leaves are one compare's forms at constant k: each operator, and
		// BETWEEN k and c2.
		leaves := func(k int16) (ls []FilterLeaf) {
			for op := LT; op <= NE; op++ {
				lo, hi, not := CmpRange(op, int64(k))
				ls = append(ls, FilterLeaf{Lo: lo, Hi: hi, Not: not != (form&1 != 0)})
			}
			return append(ls, FilterLeaf{Lo: int64(k), Hi: int64(c2), Not: form&2 != 0})
		}
		mask := func(out []byte, vals []int8, l FilterLeaf) { CmpRangeU(vals, l.Lo, l.Hi, l.Not, out) }
		for _, k := range [][2]int16{{c1, c2}, {math.MinInt8, math.MaxInt8}, {math.MaxInt8, math.MinInt8}, {math.MinInt8 - 1, math.MaxInt8 + 1}} {
			for _, l1 := range leaves(k[0]) {
				cx := l1
				cx.I8 = x
				mask(m, x, l1)
				check(fmt.Sprintf("%+v alone", l1), cx, FilterLeaf{})
				for _, l2 := range leaves(k[1]) {
					cy := l2
					cy.I8 = y
					mask(m, x, l1)
					mask(my, y, l2)
					And(m, my)
					check(fmt.Sprintf("%+v and %+v", l1, l2), cx, cy)
				}
			}
		}
	})
}
