package ht

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// FuzzGroupFold holds the AVX2 fold of small group tables (FoldSum1Groups on
// packed and keyed tables, FoldSum2Groups, FoldMinMaxGroups) to the Go loop
// it replaces (FoldSum1, FoldSum2, FoldMinMax), record for record, throwaway
// record included: under value and key masking, at every domain from 1 to 15
// keys (1 to 15 folded slots under value masking, 2 to 16 under key
// masking), with int8 and int32 arguments, the int32 sums in int32 lanes
// where vec.NarrowI32 proves them exact and widened always, over values
// within ±2^23 to ±2^30 as the fuzzer picks. A tile is 0 to
// 2,063 lanes (a fold splits at vec.TileSize, and a part under 32 lanes runs
// the Go loop) over backing arrays at any of 32 offsets. Keys are two int8
// columns packed as K0·M0 + K1 + Add, M0 up to 15, or 300 (which the kernel
// refuses), over a table at one of five origins. Every 17th argument lane is
// -128 (int32: math.MinInt32 when the fuzzer asks for extremes) and every
// 19th 127 (math.MaxInt32). One lane may hold a key past the domain, before
// it, or NullKey: both folds must panic alike or route it alike. Each table
// folds the tile, then its first half again, so the kernel also adds into
// records the first fold left.
func FuzzGroupFold(f *testing.F) {
	f.Add([]byte{3, 200, 50, 1, 0x80, 0x7f}, uint16(1024), uint8(0), uint8(0), uint8(2), uint16(0), uint8(128), false)
	f.Add([]byte{0x80, 0x7f, 0xff, 0}, uint16(1023), uint8(1), uint8(1), uint8(3), uint16(4*500+1), uint8(200), true)
	f.Add([]byte{9}, uint16(33), uint8(7), uint8(2), uint8(0), uint16(4*7+2), uint8(0), true)
	f.Add([]byte{1, 2, 3, 4, 5}, uint16(2063), uint8(31), uint8(3), uint8(15), uint16(4*2000+3), uint8(255), false)
	f.Add([]byte{0x55, 0xaa}, uint16(31), uint8(5), uint8(4), uint8(255), uint16(0), uint8(100), true)
	f.Add([]byte{}, uint16(64), uint8(3), uint8(4), uint8(1), uint16(4*63+3), uint8(60), false)
	f.Add([]byte{7, 7, 7}, uint16(1057), uint8(9), uint8(0), uint8(6), uint16(4*1040+1), uint8(250), true)
	f.Fuzz(func(t *testing.T, data []byte, n uint16, off, origin, m0 uint8, bad uint16, density uint8, extremes bool) {
		if !vec.HasAVX2 {
			t.Skip("no AVX2: the small group fold has no kernel on this CPU")
		}
		l, o := int(n)%(2*vec.TileSize+16), int(off%32)
		byteAt := func(i, salt int) byte {
			if len(data) == 0 {
				return byte(i*7 + salt)
			}
			return data[(i+salt)%len(data)] + byte(i*salt)
		}
		at := func(n int) int { return o + n }
		k0, k1 := make([]int8, at(l))[o:], make([]int8, at(l))[o:]
		a8, b8, a32 := make([]int8, at(l))[o:], make([]int8, at(l))[o:], make([]int32, at(l))[o:]
		cmp := make([]byte, at(l))[o:]
		shift := byteAt(0, 10) % 8 // int32 values within ±2^23 to ±2^30
		for i := range l {
			v := int32(byteAt(i, 2))<<16 | int32(byteAt(i, 3))<<8 | int32(byteAt(i, 4))
			a8[i], b8[i], a32[i] = int8(byteAt(i, 1)), int8(byteAt(i, 9)), (v-1<<23)<<shift
			switch {
			case i%17 == 0:
				a8[i], b8[i], a32[i] = math.MinInt8, math.MinInt8, math.MinInt8
				if extremes {
					a32[i] = math.MinInt32
				}
			case i%19 == 0:
				a8[i], b8[i], a32[i] = math.MaxInt8, math.MaxInt8, math.MaxInt8
				if extremes {
					a32[i] = math.MaxInt32
				}
			}
			cmp[i] = b2i(byteAt(i, 5) < density || density == 255)
		}
		lo := [...]int64{0, -5, 100, 1 << 40, NullKey + 3}[origin%5]
		mul := int64(m0 % 16)
		if m0 == 255 {
			mul = 300
		}
		c := int64(int8(byteAt(0, 6))) % 8
		narrow := l > 0 && vec.NarrowI32(int64(slices.Min(a32[:l])), int64(slices.Max(a32[:l])))
		for d := 1; d < vec.GroupSlots; d++ {
			for round := range 2 { // the second with the bad lane
				for i := range l {
					u, x := int64(byteAt(i, 7))%int64(d), int64(int8(byteAt(i, 8)))%5
					if mul > 15 {
						x = 0
					}
					k0[i], k1[i] = int8(x), int8(u-x*mul-c)
				}
				tile := fmt.Sprintf("domain %d from %d, M0 %d, %d lanes at offset %d", d, lo, mul, l, o)
				if round == 1 {
					if bad%4 == 0 || l == 0 {
						continue
					}
					i, v := int(bad/4)%l, [...]int64{0, int64(d), -1, -3}[bad%4] // -3 is NullKey at the last origin
					k0[i], k1[i] = 0, int8(v-c)
					tile += fmt.Sprintf(", key %d at lane %d", v+lo, i)
				}
				groupRound(t, tile, TileKey[int8]{K0: k0[:l], K1: k1[:l], M0: mul, Add: c + lo}, lo, d, a8, b8, a32, cmp, narrow)
			}
		}
	})
}

// groupRound is one tile of FuzzGroupFold: every fold under each masking.
func groupRound(t *testing.T, tile string, k TileKey[int8], lo int64, d int, a8, b8 []int8, a32 []int32, cmp []byte, narrow bool) {
	for _, keyMask := range []bool{false, true} {
		what := fmt.Sprintf("%s, key masking %t", tile, keyMask)
		for _, wide := range []bool{!narrow, true} {
			w := fmt.Sprintf("%s, wide %t", what, wide)
			groupCase(t, w+", sum1(i8) packed", 1, true, false, lo, d,
				func(g *AggTable, k TileKey[int8]) { FoldSum1(g, k.K1, k.Add, a8, cmp, keyMask) },
				func(g *AggTable, k TileKey[int8]) { FoldSum1Groups(g, k.K1, k.Add, a8, cmp, keyMask, wide) }, k)
			groupCase(t, w+", sum1(i32) packed", 1, true, false, lo, d,
				func(g *AggTable, k TileKey[int8]) { FoldSum1(g, k.K1, k.Add, a32, cmp, keyMask) },
				func(g *AggTable, k TileKey[int8]) { FoldSum1Groups(g, k.K1, k.Add, a32, cmp, keyMask, wide) }, k)
			groupCase(t, w+", sum1(i8) keyed", 1, false, false, lo, d,
				func(g *AggTable, k TileKey[int8]) { FoldSum1(g, k.K1, k.Add, a8, cmp, keyMask) },
				func(g *AggTable, k TileKey[int8]) { FoldSum1Groups(g, k.K1, k.Add, a8, cmp, keyMask, wide) }, k)
			groupCase(t, w+", sum1(i32) keyed", 1, false, false, lo, d,
				func(g *AggTable, k TileKey[int8]) { FoldSum1(g, k.K1, k.Add, a32, cmp, keyMask) },
				func(g *AggTable, k TileKey[int8]) { FoldSum1Groups(g, k.K1, k.Add, a32, cmp, keyMask, wide) }, k)
			ws := [2]bool{wide, wide}
			groupCase(t, w+", sum2(i8,i8)", 2, false, false, lo, d,
				func(g *AggTable, k TileKey[int8]) { FoldSum2(g, k, a8, b8, cmp, keyMask) },
				func(g *AggTable, k TileKey[int8]) { FoldSum2Groups(g, k, a8, b8, cmp, keyMask, ws) }, k)
			groupCase(t, w+", sum2(i8,i32)", 2, false, false, lo, d,
				func(g *AggTable, k TileKey[int8]) { FoldSum2(g, k, a8, a32, cmp, keyMask) },
				func(g *AggTable, k TileKey[int8]) { FoldSum2Groups(g, k, a8, a32, cmp, keyMask, ws) }, k)
			groupCase(t, w+", sum2(i32,i8)", 2, false, false, lo, d,
				func(g *AggTable, k TileKey[int8]) { FoldSum2(g, k, a32, a8, cmp, keyMask) },
				func(g *AggTable, k TileKey[int8]) { FoldSum2Groups(g, k, a32, a8, cmp, keyMask, ws) }, k)
			groupCase(t, w+", sum2(i32,i32)", 2, false, false, lo, d,
				func(g *AggTable, k TileKey[int8]) { FoldSum2(g, k, a32, a32, cmp, keyMask) },
				func(g *AggTable, k TileKey[int8]) { FoldSum2Groups(g, k, a32, a32, cmp, keyMask, ws) }, k)
		}
		groupCase(t, what+", minmax(i32)", 2, false, true, lo, d,
			func(g *AggTable, k TileKey[int8]) { FoldMinMax(g, k, a32, cmp, keyMask) },
			func(g *AggTable, k TileKey[int8]) { FoldMinMaxGroups(g, k, a32, cmp, keyMask) }, k)
	}
}

// groupCase folds k with ref and with fast into tables of their own of
// nAccs lanes over the domain [lo, lo+d) — packed, or of a min and a max —
// then the first half of k again, and compares the panics, or the records.
func groupCase(t *testing.T, what string, nAccs int, packed, minmax bool, lo int64, d int, ref, fast func(*AggTable, TileKey[int8]), k TileKey[int8]) {
	t.Helper()
	run := func(fold func(*AggTable, TileKey[int8])) (recs []int64, msg any) {
		g := NewDenseAggTable(nAccs, lo, lo+int64(d-1), packed)
		if minmax {
			g.SetIdentity(0, math.MaxInt64)
			g.SetIdentity(1, math.MinInt64)
			g.Reset()
		}
		defer func() { msg = recover() }()
		fold(g, k)
		fold(g, k.tile(0, len(k.K1)/2))
		return g.recs, nil
	}
	want, wantPanic := run(ref)
	got, gotPanic := run(fast)
	if fmt.Sprint(wantPanic) != fmt.Sprint(gotPanic) {
		t.Fatalf("%s: panic %v, Go loop's %v", what, gotPanic, wantPanic)
	}
	if wantPanic == nil && !slices.Equal(got, want) {
		t.Fatalf("%s: records %v, Go loop's %v", what, got, want)
	}
}

func b2i(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// BenchmarkKernelGroups folds one tile of vec.TileSize lanes into a table of
// 2, 8, 16 and 32 slots (one key fewer, and the throwaway record) with the Go
// loop and, up to vec.GroupSlots, the AVX2 fold: sum1 over int8 on a packed
// table under value masking (or3_having's record), sum2 over int8 and int32
// under key masking with the int32 sums in int32 lanes (sum2) and widened
// (sum2w; q1_multiagg's record), and minmax over int32 under value masking
// (minmax_group's). Half the lanes pass. The AVX2 passes' own cost at 32
// slots, which the fold does not serve, is vec's BenchmarkKernelGroups.
func BenchmarkKernelGroups(b *testing.B) {
	const n = vec.TileSize
	k0, a8, a32, cmp := make([]int8, n), make([]int8, n), make([]int32, n), make([]byte, n)
	for i := range n {
		h := hash64(uint64(i) + 1)
		a8[i], a32[i], cmp[i] = int8(h>>8), int32(h>>16)%1_000_000, byte(h>>40)&1
	}
	for _, slots := range []int{2, 8, 16, 32} {
		d := slots - 1
		for i := range n {
			k0[i] = int8(hash64(uint64(i)+7) % uint64(d))
		}
		k := TileKey[int8]{K0: k0, K1: k0}
		sum1, sum2 := NewDenseAggTable(1, 0, int64(d-1), true), NewDenseAggTable(2, 0, int64(d-1), false)
		mm := NewDenseAggTable(2, 0, int64(d-1), false)
		mm.SetIdentity(0, math.MaxInt64)
		mm.SetIdentity(1, math.MinInt64)
		mm.Reset()
		rows := []struct {
			name     string
			goLoop   func()
			avx2Loop func()
		}{
			{"sum1", func() { FoldSum1(sum1, k0, 0, a8, cmp, false) }, func() { FoldSum1Groups(sum1, k0, 0, a8, cmp, false, false) }},
			{"sum2", func() { FoldSum2(sum2, k, a8, a32, cmp, true) }, func() { FoldSum2Groups(sum2, k, a8, a32, cmp, true, [2]bool{}) }},
			{"sum2w", nil, func() { FoldSum2Groups(sum2, k, a8, a32, cmp, true, [2]bool{false, true}) }},
			{"minmax", func() { FoldMinMax(mm, k, a32, cmp, false) }, func() { FoldMinMaxGroups(mm, k, a32, cmp, false) }},
		}
		for _, r := range rows {
			loops := map[string]func(){"go": r.goLoop}
			if vec.HasAVX2 && slots <= vec.GroupSlots {
				loops["avx2"] = r.avx2Loop
			}
			for _, loop := range []string{"go", "avx2"} {
				if fold := loops[loop]; fold != nil {
					b.Run(fmt.Sprintf("%s/%s/%d", loop, r.name, slots), func(b *testing.B) {
						for range b.N {
							fold()
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
					})
				}
			}
		}
	}
}
