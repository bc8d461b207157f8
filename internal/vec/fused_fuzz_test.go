package vec

import (
	"math"
	"testing"
)

// FuzzFusedScalar holds the fused int8 loop (SumFusedI8) to the mask path it
// replaces: CmpConstI8 per compare, And, CountOnes, and SumMaskedU or
// SumProdMaskedU over the mask. Every pair of operators, and every operator
// alone, runs at the fuzzer's constants and at -128 and 127, folding the
// count alone, sum(a) and sum(a*b), over lanes that start at any of 32
// offsets into their backing arrays and number 0 to 2·TileSize+15 (the
// kernel steps 16 lanes, and SumFusedI8 splits at TileSize). Every 17th lane
// of each column is -128 and every 19th 127.
func FuzzFusedScalar(f *testing.F) {
	f.Add([]byte{3, 200, 50, 1, 0x80, 0x7f}, uint8(0), uint16(1), int8(50), int8(1))
	f.Add([]byte{0x80, 0x7f, 0xff, 0}, uint8(1), uint16(15), int8(-128), int8(127))
	f.Add([]byte{9}, uint8(7), uint16(17), int8(0), int8(-1))
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(31), uint16(TileSize-1), int8(127), int8(-128))
	f.Add([]byte{0x55, 0xaa}, uint8(5), uint16(TileSize), int8(20), int8(99))
	f.Add([]byte{}, uint8(3), uint16(2*TileSize+15), int8(-7), int8(7))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, n uint16, c1, c2 int8) {
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
		check := func(what string, cx RangeI8, ys []int8, cy RangeI8) {
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
				gc, gs := SumFusedI8(x, cx, ys, cy, fd.a, fd.b)
				if gc != cnt || gs != sum {
					t.Fatalf("%s, off %d, %d lanes, a %t, b %t: count %d sum %d, mask path %d %d",
						what, o, l, fd.a != nil, fd.b != nil, gc, gs, cnt, sum)
				}
			}
		}
		for _, k := range [][2]int8{{c1, c2}, {math.MinInt8, math.MaxInt8}, {math.MaxInt8, math.MinInt8}} {
			for op1 := LT; op1 <= NE; op1++ {
				CmpConstI8(op1, x, k[0], m)
				check(op1.String()+" alone", CmpRangeI8(op1, k[0]), nil, RangeI8{})
				for op2 := LT; op2 <= NE; op2++ {
					CmpConstI8(op1, x, k[0], m)
					CmpConstI8(op2, y, k[1], my)
					And(m, my)
					check(op1.String()+" and "+op2.String(), CmpRangeI8(op1, k[0]), y, CmpRangeI8(op2, k[1]))
				}
			}
		}
	})
}
