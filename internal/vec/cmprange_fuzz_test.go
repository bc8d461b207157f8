package vec

import (
	"math"
	"slices"
	"testing"
)

// FuzzCmpRange holds CmpRangeU, the one compare of a column against
// constants, to a lane-at-a-time reference at each stored width: int8 and
// int16 tiles of 32 lanes or more run the AVX2 range compare where HasAVX2,
// every other tile an unrolled loop. Every operator runs through CmpRange at
// the fuzzer's constant, at each end of the width and one past it, and at
// the ends of int64; BETWEEN at the fuzzer's bounds, at lo > hi and past the
// width's ends; each also under not. The lanes number 0 to 2·TileSize+15 and
// start at any of 32 offsets into their backing arrays. Every 17th lane is
// the width's least value, every 19th its greatest and every 23rd the
// constant; no byte of out past the lanes changes.
func FuzzCmpRange(f *testing.F) {
	f.Add([]byte{3, 200, 50, 1, 0x80, 0x7f}, uint8(0), uint16(32), int64(50), int64(-5), int64(5))
	f.Add([]byte{0x80, 0x7f, 0xff, 0}, uint8(1), uint16(31), int64(math.MinInt16), int64(1), int64(0))
	f.Add([]byte{9}, uint8(7), uint16(TileSize), int64(math.MaxInt16), int64(math.MinInt16), int64(math.MaxInt16))
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(31), uint16(TileSize+33), int64(-1), int64(300), int64(-100))
	f.Add([]byte{}, uint8(3), uint16(0), int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, n uint16, c, lo, hi int64) {
		o, l := int(off%32), int(n)%(2*TileSize+16)
		checkCmpRange[int8](t, data, o, l, c, lo, hi)
		checkCmpRange[int16](t, data, o, l, c, lo, hi)
		checkCmpRange[int32](t, data, o, l, c, lo, hi)
		checkCmpRange[int64](t, data, o, l, c, lo, hi)
	})
}

// checkCmpRange is one width of FuzzCmpRange.
func checkCmpRange[T Number](t *testing.T, data []byte, o, l int, c, lo, hi int64) {
	t.Helper()
	wlo, whi := width[T]()
	x := make([]T, o+l)[o:]
	for i := range x {
		switch {
		case i%17 == 0:
			x[i] = T(wlo)
		case i%19 == 0:
			x[i] = T(whi)
		case i%23 == 0:
			x[i] = T(c)
		case len(data) > 0:
			// Small values near the constants in some lanes, every bit of
			// the width in the others.
			v := int64(int8(data[i%len(data)])) + int64(i%7)
			if i%3 == 0 {
				v = int64(uint64(i+1) * 0x9e3779b97f4a7c15 >> (data[i%len(data)] % 64))
			}
			x[i] = T(v)
		}
	}
	got, want := make([]byte, o+l+32)[o:], make([]byte, l+32)
	run := func(what string, a, b int64, not bool, pass func(v int64) bool) {
		t.Helper()
		Fill(got, 0xaa)
		Fill(want, 0xaa)
		CmpRangeU(x, a, b, not, got)
		for i, v := range x {
			want[i] = b2i(pass(int64(v)))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%T %s [%d, %d] not %t, off %d, %d lanes: %v, want %v", x[0:0], what, a, b, not, o, l, got, want)
		}
	}
	for _, k := range []int64{c, wlo, whi, wlo - 1, whi + 1, math.MinInt64, math.MaxInt64} {
		for op := LT; op <= NE; op++ {
			a, b, not := CmpRange(op, k)
			run(op.String(), a, b, not, func(v int64) bool { return refCmp(op, v, k) == 1 })
			run("not "+op.String(), a, b, !not, func(v int64) bool { return refCmp(op, v, k) == 0 })
		}
	}
	for _, r := range [][2]int64{{lo, hi}, {hi, lo}, {1, 0}, {wlo, whi}, {wlo - 1, whi + 1}, {c, c}, {wlo - 5, c}, {c, whi + 5}, {math.MinInt64, math.MaxInt64}} {
		for _, not := range []bool{false, true} {
			run("between", r[0], r[1], not, func(v int64) bool { return (refBetween(v, r[0], r[1]) == 1) != not })
		}
	}
}
