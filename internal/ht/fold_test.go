package ht

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// FuzzFoldSignatures holds each fused fold — FoldSum2, FoldSum3 and
// FoldMinMax — at each stored argument width to FoldTile (FoldTileKeyMasked
// under key masking on a key-addressed table) and the lane passes after it
// over int64 copies of the same columns, tile by tile: on key-addressed
// tables keyed by two columns packed in the loop and by one, on one keyed by
// int64 keys — where NullKey lanes take the refuse route and a key outside
// the domain panics on both sides — and on a hashed table over the slots
// LookupTile resolves; under value and key masking, at the mask density the
// fuzzer picks. Groups and the throwaway record's count must agree; its lanes
// are nobody's answer, which the lane passes leave differently.
func FuzzFoldSignatures(f *testing.F) {
	body := strings.Repeat("\x01\x02\x03\x04\xc1\x05\x06\x07\x00\xff\x80\x10\x31\x52\x73\x94", 24)
	for sig := range uint8(3) {
		f.Add(sig, sig, uint8(128), uint16(30), []byte(body))
		f.Add(sig, sig, uint8(200), uint16(64), []byte(body+"\xee\xee\x01\x00"+body))
		f.Add(sig, sig+1, uint8(100), uint16(64), []byte(body+"\xee\xee\x00\x00")) // the first key past the domain
		f.Add(sig, sig+1, uint8(255), uint16(7), []byte("swole pulls predicates up, not down."))
		f.Add(sig, sig+2, uint8(0), uint16(499), []byte(strings.Repeat("aaaabbbbccccddddeeeeffffgggghhhh", 9)))
		f.Add(sig, sig+3, uint8(9), uint16(1), []byte{})
	}
	f.Fuzz(func(t *testing.T, sig, width, density uint8, domain uint16, data []byte) {
		switch sig, d := sig%3, int(domain%500)+1; width % 4 {
		case 0:
			foldSignature[int8](t, sig, density, d, data)
		case 1:
			foldSignature[int16](t, sig, density, d, data)
		case 2:
			foldSignature[int32](t, sig, density, d, data)
		default:
			foldSignature[int64](t, sig, density, d, data)
		}
	})
}

// Fused signatures, as FuzzFoldSignatures numbers them.
const (
	sigSum2 = iota
	sigSum3
	sigMinMax
)

// foldSignature is FuzzFoldSignatures at argument width T. Each 4-byte word
// of data is a lane: two key digits, a mask byte (1 when under density, or
// always at 255) and the seed of its three argument values; a word whose
// second byte has its top two bits set is NullKey on the int64 keys, and
// 0xeeee in the first two bytes a key past the domain.
func foldSignature[T Int](t *testing.T, sig, density uint8, domain int, data []byte) {
	w1 := 1 + domain%5
	w0 := 1 + domain/5
	lo0, lo1, base := int64(-2), int64(3), int64(-1)<<40
	var c0, c1 []T
	var packed, lone, wide []int64
	var a, b, c []T
	var cmp []byte
	for i := 0; len(data) >= 4; data, i = data[4:], i+1 {
		d0, d1 := int(data[0])%w0, int(data[1])%w1
		c0, c1 = append(c0, T(lo0+int64(d0))), append(c1, T(lo1+int64(d1)))
		packed, lone = append(packed, int64(d0*w1+d1)), append(lone, int64(d0))
		k := base + int64(d0*w1+d1)
		switch {
		case data[0] == 0xee && data[1] == 0xee:
			k = base + int64(w0*w1) + int64(data[2])
		case data[1]&0xc0 == 0xc0:
			k = NullKey
		}
		wide = append(wide, k)
		h := hash64(uint64(i)<<32 | uint64(data[0])<<24 | uint64(data[1])<<16 | uint64(data[2])<<8 | uint64(data[3]))
		a, b, c = append(a, T(h)), append(b, T(h>>21)), append(c, T(h>>42))
		cmp = append(cmp, b2u(data[2] < density || density == 255))
	}
	lanes := 2
	if sig == sigSum3 {
		lanes = 3
	}
	span := int64(w0 * w1)
	slots := make([]int32, 100)
	// fold folds lanes [lo, hi) of the arguments into tab, keyed by k.
	type fold func(tab *AggTable, lo, hi int, keys []int64, m []byte, keyMask bool)
	for _, form := range []struct {
		name string
		keys []int64 // the lane passes' keys
		make func() *AggTable
		fold fold
	}{
		{"two key columns", packed, func() *AggTable { return NewDenseAggTable(lanes, 0, span-1, false) },
			func(tab *AggTable, lo, hi int, _ []int64, m []byte, keyMask bool) {
				k := TileKey[T]{K0: c0[lo:hi], K1: c1[lo:hi], M0: int64(w1), Add: -lo0*int64(w1) - lo1}
				fuseSig(tab, sig, k, a[lo:hi], b[lo:hi], c[lo:hi], m, keyMask)
			}},
		{"one key column", lone, func() *AggTable { return NewDenseAggTable(lanes, 0, int64(w0)-1, false) },
			func(tab *AggTable, lo, hi int, _ []int64, m []byte, keyMask bool) {
				k := TileKey[T]{K0: c0[lo:hi], K1: c0[lo:hi], Add: -lo0}
				fuseSig(tab, sig, k, a[lo:hi], b[lo:hi], c[lo:hi], m, keyMask)
			}},
		{"int64 keys", wide, func() *AggTable { return NewDenseAggTable(lanes, base, base+span-1, false) },
			func(tab *AggTable, lo, hi int, keys []int64, m []byte, keyMask bool) {
				fuseSig(tab, sig, TileKey[int64]{K0: keys, K1: keys}, a[lo:hi], b[lo:hi], c[lo:hi], m, keyMask)
			}},
		{"hashed", wide, func() *AggTable { return NewAggTable(lanes, 1) },
			func(tab *AggTable, lo, hi int, keys []int64, m []byte, _ bool) {
				tab.LookupTile(keys, slots)
				k := TileKey[int32]{K0: slots[:hi-lo], K1: slots[:hi-lo]}
				fuseSig(tab, sig, k, a[lo:hi], b[lo:hi], c[lo:hi], m, false)
			}},
	} {
		hashed := form.name == "hashed"
		for _, keyMask := range []bool{false, true} {
			tag := fmt.Sprintf("signature %d, %s, key masking %v, width %T, domain %d", sig, form.name, keyMask, a[:0], domain)
			got, want := form.make(), form.make()
			if sig == sigMinMax {
				for _, tab := range []*AggTable{got, want} {
					tab.SetIdentity(0, math.MaxInt64)
					tab.SetIdentity(1, math.MinInt64)
					tab.Reset()
				}
			}
			const tile = 100
			masked := make([]int64, tile)
			wa, wb, wc := make([]int64, tile), make([]int64, tile), make([]int64, tile)
			gotPanic := recovered(func() {
				for lo := 0; lo < len(cmp); lo += tile {
					hi := min(lo+tile, len(cmp))
					m, keys := cmp[lo:hi], form.keys[lo:hi]
					if hashed && keyMask {
						vec.MaskKeysU(keys, m, NullKey, masked)
						keys = masked[:hi-lo]
					}
					form.fold(got, lo, hi, keys, m, keyMask)
				}
			})
			wantPanic := recovered(func() {
				for lo := 0; lo < len(cmp); lo += tile {
					hi := min(lo+tile, len(cmp))
					m, keys := cmp[lo:hi], form.keys[lo:hi]
					vec.WidenU(a[lo:hi], wa)
					vec.WidenU(b[lo:hi], wb)
					vec.WidenU(c[lo:hi], wc)
					first := wa[:hi-lo]
					if sig == sigMinMax {
						first = nil
					}
					switch {
					case keyMask && !hashed:
						want.FoldTileKeyMasked(keys, slots, 0, first, m)
					case keyMask:
						vec.MaskKeysU(keys, m, NullKey, masked)
						want.FoldTile(masked[:hi-lo], slots, 0, first, m)
					default:
						want.FoldTile(keys, slots, 0, first, m)
					}
					s := slots[:hi-lo]
					switch sig {
					case sigMinMax:
						want.MinTile(s, 0, wa, m)
						want.MaxTile(s, 1, wa, m)
					case sigSum3:
						want.SumTile(s, 2, wc, m)
						fallthrough
					default:
						want.SumTile(s, 1, wb, m)
					}
				}
			})
			if gotPanic != wantPanic {
				t.Fatalf("%s: fused fold panicked %q, lane passes %q", tag, gotPanic, wantPanic)
			}
			if gotPanic != "" {
				continue
			}
			if g, w := records(got), records(want); !slices.EqualFunc(g, w, slices.Equal) {
				t.Fatalf("%s:\n fused       %v\n lane passes %v", tag, g, w)
			}
			if g, w := got.Count(-1), want.Count(-1); g != w {
				t.Fatalf("%s: throwaway count %d, lane passes' %d", tag, g, w)
			}
		}
	}
}

// recovered runs fn and returns what it panicked with, or "".
func recovered(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// fuseSig runs signature sig's fused fold.
func fuseSig[K, T Int](tab *AggTable, sig uint8, k TileKey[K], a, b, c []T, m []byte, keyMask bool) {
	switch sig {
	case sigSum2:
		FoldSum2(tab, k, a, b, m, keyMask)
	case sigSum3:
		FoldSum3(tab, k, a, b, c, m, keyMask)
	default:
		FoldMinMax(tab, k, a, m, keyMask)
	}
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// records lists a table's groups — key, lanes, count — in key order.
func records(t *AggTable) (out [][]int64) {
	t.ForEach(func(k int64, s int) {
		r := []int64{k}
		for acc := range t.nAccs {
			r = append(r, t.Acc(s, acc))
		}
		out = append(out, append(r, t.Count(s)))
	})
	slices.SortFunc(out, func(a, b []int64) int { return int(a[0] - b[0]) })
	return out
}
