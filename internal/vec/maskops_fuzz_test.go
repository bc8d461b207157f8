package vec

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzMaskOps holds the word-at-a-time mask kernels to the byte-at-a-time
// loops they replaced, kept here as the reference: for masks of any length
// from 0 to 2·TileSize+63 starting at any offset into their backing array,
// the results agree lane for lane and no byte outside the mask is written.
// The eight-lane selection build agrees with the byte loop on every prefix
// of a tile, 0 to TileSize lanes, and writes no index past the prefix. The
// eight-lane int8 compares agree with the byte loop for every operator and
// BETWEEN, at the fuzzer's constants and at −128 and 127, over the same
// framed lengths (tails of 1–7 lanes among them) and writing no byte outside.

func refAnd(dst, src []byte) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

func refOr(dst, src []byte) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

func refNot(dst []byte) {
	for i := range dst {
		dst[i] ^= 1
	}
}

func refFill(dst []byte, v byte) {
	for i := range dst {
		dst[i] = v
	}
}

// refSel is the byte-at-a-time selection build.
func refSel(cmp []byte, sel []int32) (k int) {
	for j, v := range cmp {
		if v != 0 {
			sel[k] = int32(j)
			k++
		}
	}
	return k
}

func refCount(m []byte) (n int) {
	for _, v := range m {
		n += int(v)
	}
	return n
}

// lanes builds a 0/1 mask of n lanes from the fuzzer's bytes, cycled.
func lanes(data []byte, n, salt int) []byte {
	m := make([]byte, n)
	for i := range m {
		if len(data) > 0 {
			m[i] = data[(i+salt)%len(data)] >> (uint(salt) & 7) & 1
		}
	}
	return m
}

func FuzzMaskOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1}, uint16(1), uint16(7))
	f.Add([]byte{0xff}, uint16(63), uint16(65))
	f.Add([]byte{0}, uint16(0), uint16(TileSize))
	f.Add([]byte{1, 1, 1, 0}, uint16(5), uint16(2*TileSize+63))
	f.Add([]byte{}, uint16(8), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, off, n uint16) {
		o, l := int(off%64), int(n)%(2*TileSize+64)
		a, b := lanes(data, l, 0), lanes(data, l, 3)
		// The mask under test sits at offset o of a sentinel-filled array.
		frame := func(m []byte) (whole, mask []byte) {
			whole = bytes.Repeat([]byte{0xaa}, o+l+9)
			copy(whole[o:], m)
			return whole, whole[o : o+l : o+l]
		}
		check := func(op string, whole []byte, want []byte) {
			t.Helper()
			if !bytes.Equal(whole[o:o+l], want) {
				t.Fatalf("%s: off=%d len=%d differs from the byte loop", op, o, l)
			}
			for i, v := range whole {
				if (i < o || i >= o+l) && v != 0xaa {
					t.Fatalf("%s: off=%d len=%d wrote byte %d, outside the mask", op, o, l, i)
				}
			}
		}
		whole, m := frame(a)
		want := append([]byte(nil), a...)
		And(m, b)
		refAnd(want, b)
		check("And", whole, want)

		whole, m = frame(a)
		want = append(want[:0], a...)
		Or(m, b)
		refOr(want, b)
		check("Or", whole, want)

		whole, m = frame(a)
		want = append(want[:0], a...)
		Not(m)
		refNot(want)
		check("Not", whole, want)

		for _, v := range []byte{0, 1} {
			whole, m = frame(a)
			Fill(m, v)
			refFill(want, v)
			check("Fill", whole, want)
			if !AllOnes(m) && v == 1 || !AllZeros(m) && v == 0 {
				t.Fatalf("off=%d len=%d: a mask filled with %d is not all %d", o, l, v, v)
			}
		}

		_, m = frame(a)
		ones := refCount(a)
		if got := CountOnes(m); got != ones {
			t.Fatalf("CountOnes: off=%d len=%d: %d, byte loop %d", o, l, got, ones)
		}
		if got := AllOnes(m); got != (ones == l) {
			t.Fatalf("AllOnes: off=%d len=%d with %d set: %t", o, l, ones, got)
		}
		if got := AllZeros(m); got != (ones == 0) {
			t.Fatalf("AllZeros: off=%d len=%d with %d set: %t", o, l, ones, got)
		}

		vals := make([]int8, l)
		for i := range vals {
			if len(data) > 0 {
				vals[i] = int8(data[i%len(data)] + byte(i/len(data)))
			}
		}
		var k0, k1 int8
		if len(data) > 1 {
			k0, k1 = int8(data[0]), int8(data[1])
		}
		for _, k := range []int8{k0, k1, -128, 127} {
			for op := LT; op <= NE; op++ {
				whole, m = frame(a)
				CmpConstI8(op, vals, k, m)
				CmpConst(op, vals, k, want)
				check("CmpConstI8 "+op.String(), whole, want)
			}
			for _, hi := range []int8{k0, k1, -128, 127} {
				whole, m = frame(a)
				CmpBetweenI8(vals, k, hi, m)
				CmpConstBetween(vals, k, hi, want)
				check("CmpBetweenI8", whole, want)
			}
		}
		whole, m = frame(a)
		if CmpConstI8(LE, vals, 127, m); !AllOnes(m) {
			t.Fatalf("len=%d: x <= 127 is not all ones", l)
		}
		if CmpConstI8(GT, vals, 127, m); !AllZeros(m) {
			t.Fatalf("len=%d: x > 127 is not all zeros", l)
		}

		tile := lanes(data, TileSize, int(off))
		sel, want32 := make([]int32, TileSize+8), make([]int32, TileSize)
		for n := 0; n <= TileSize; n++ {
			for i := range sel {
				sel[i] = -1
			}
			k, d := SelFromCmpAdaptive(tile[:n], sel[:n])
			if r := refSel(tile[:n], want32); k != r || d != ClassifyDensity(r, n) || !slices.Equal(sel[:k], want32[:r]) {
				t.Fatalf("SelFromCmpAdaptive: len=%d selects %d (%v), byte loop %d", n, k, d, r)
			}
			if i := slices.IndexFunc(sel[n:], func(v int32) bool { return v != -1 }); i >= 0 {
				t.Fatalf("SelFromCmpAdaptive: len=%d wrote sel[%d], past the tile", n, n+i)
			}
		}
	})
}
