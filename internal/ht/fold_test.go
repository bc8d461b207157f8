package ht

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// FuzzFoldSignatures holds each fused fold — FoldSum1, FoldSum2, FoldSum3 and
// FoldMinMax — at each stored key and argument width to a reference over
// int64 copies of the same columns, tile by tile: on key-addressed tables
// keyed by two columns packed in the loop and by one, on one keyed by int64
// keys — where NullKey lanes take the refuse route and a key outside the
// domain panics on both sides — and on a hashed table over the slots
// LookupTile resolves; under value and key masking, at the mask density the
// fuzzer picks. The reference of FoldSum2, FoldSum3 and FoldMinMax is FoldTile
// (FoldTileKeyMasked under key masking on a key-addressed table) and the
// lane passes after it. FoldSum1 runs on packed and unpacked key-addressed
// tables, and also unmasked (cmp nil); its reference is a lane at a time,
// Lookup then Add or AddMasked (perLane), so it shares no loop with the pair
// folds FoldSum1 and FoldTile run. Groups and the throwaway record's count
// must agree; its lanes are nobody's answer, which the lane passes leave
// differently.
func FuzzFoldSignatures(f *testing.F) {
	body := strings.Repeat("\x01\x02\x03\x04\xc1\x05\x06\x07\x00\xff\x80\x10\x31\x52\x73\x94", 24)
	same := func(w uint8) uint8 { return w % 4 * 5 } // key and argument width w
	for sig := range uint8(4) {
		f.Add(sig, same(sig), uint8(128), uint16(30), []byte(body))
		f.Add(sig, same(sig), uint8(200), uint16(64), []byte(body+"\xee\xee\x01\x00"+body))
		f.Add(sig, same(sig+1), uint8(100), uint16(64), []byte(body+"\xee\xee\x00\x00")) // the first key past the domain
		f.Add(sig, same(sig+1), uint8(255), uint16(7), []byte("swole pulls predicates up, not down."))
		f.Add(sig, same(sig+2), uint8(0), uint16(499), []byte(strings.Repeat("aaaabbbbccccddddeeeeffffgggghhhh", 9)))
		f.Add(sig, same(sig+3), uint8(9), uint16(1), []byte{})
		for width := range uint8(16) { // every key width with every argument width
			f.Add(sig, width, uint8(128), uint16(97), []byte(body+"\xee\xee\x02\x00"))
		}
	}
	f.Fuzz(func(t *testing.T, sig, width, density uint8, domain uint16, data []byte) {
		sig, d := sig%4, int(domain%500)+1
		[]func(*testing.T, uint8, uint8, uint8, int, []byte){
			foldKeys[int8], foldKeys[int16], foldKeys[int32], foldKeys[int64],
		}[width%4](t, sig, width/4, density, d, data)
	})
}

// foldKeys is FuzzFoldSignatures at key width K, picking the argument width.
func foldKeys[K vec.Number](t *testing.T, sig, width, density uint8, domain int, data []byte) {
	[]func(*testing.T, uint8, uint8, int, []byte){
		foldSignature[K, int8], foldSignature[K, int16], foldSignature[K, int32], foldSignature[K, int64],
	}[width%4](t, sig, density, domain, data)
}

// Fused signatures, as FuzzFoldSignatures numbers them.
const (
	sigSum2 = iota
	sigSum3
	sigMinMax
	sigSum1
)

// Fold modes: the maskings, and FoldSum1's unmasked pair fold.
const (
	valueMask = iota
	keyMask
	pairs
)

// foldSignature is FuzzFoldSignatures at key width K and argument width T.
// Each 4-byte word of data is a lane: two key digits, a mask byte (1 when
// under density, or always at 255) and the seed of its three argument values;
// a word whose second byte has its top two bits set is NullKey on the int64
// keys, and 0xeeee in the first two bytes a key past the domain.
func foldSignature[K, T vec.Number](t *testing.T, sig, density uint8, domain int, data []byte) {
	w1 := 1 + domain%5
	w0 := 1 + domain/5
	lo0, lo1, base := int64(-2), int64(3), int64(-1)<<40
	var c0, c1 []K
	var packed, lone, wide []int64
	var a, b, c []T
	var cmp []byte
	for i := 0; len(data) >= 4; data, i = data[4:], i+1 {
		d0, d1 := int(data[0])%w0, int(data[1])%w1
		c0, c1 = append(c0, K(lo0+int64(d0))), append(c1, K(lo1+int64(d1)))
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
	lanes, tables, modes := 2, []bool{false}, []int{valueMask, keyMask}
	switch sig {
	case sigSum3:
		lanes = 3
	case sigSum1:
		lanes, tables, modes = 1, []bool{false, true}, append(modes, pairs)
	}
	span := int64(w0 * w1)
	slots := make([]int32, 100)
	// fold folds lanes [lo, hi) of the arguments into tab, keyed by k.
	type fold func(tab *AggTable, lo, hi int, keys []int64, m []byte, keyMask bool)
	for _, form := range []struct {
		name   string
		keys   []int64 // the lane passes' keys
		lo, hi int64   // a key-addressed table's domain
		fold   fold
	}{
		{"two key columns", packed, 0, span - 1,
			func(tab *AggTable, lo, hi int, _ []int64, m []byte, keyMask bool) {
				k := TileKey[K]{K0: c0[lo:hi], K1: c1[lo:hi], M0: int64(w1), Add: -lo0*int64(w1) - lo1}
				fuseSig(tab, sig, k, a[lo:hi], b[lo:hi], c[lo:hi], m, keyMask)
			}},
		{"one key column", lone, 0, int64(w0) - 1,
			func(tab *AggTable, lo, hi int, _ []int64, m []byte, keyMask bool) {
				k := TileKey[K]{K0: c0[lo:hi], K1: c0[lo:hi], Add: -lo0}
				fuseSig(tab, sig, k, a[lo:hi], b[lo:hi], c[lo:hi], m, keyMask)
			}},
		{"int64 keys", wide, base, base + span - 1,
			func(tab *AggTable, lo, hi int, keys []int64, m []byte, keyMask bool) {
				fuseSig(tab, sig, TileKey[int64]{K0: keys, K1: keys}, a[lo:hi], b[lo:hi], c[lo:hi], m, keyMask)
			}},
		{"hashed", wide, 0, -1,
			func(tab *AggTable, lo, hi int, keys []int64, m []byte, _ bool) {
				tab.LookupTile(keys, slots)
				k := TileKey[int32]{K0: slots[:hi-lo], K1: slots[:hi-lo]}
				fuseSig(tab, sig, k, a[lo:hi], b[lo:hi], c[lo:hi], m, false)
			}},
	} {
		hashed := form.hi < form.lo
		if hashed && sig == sigSum1 {
			continue // FoldSum1 is key-addressed only
		}
		for _, pack := range tables {
			for _, mode := range modes {
				tag := fmt.Sprintf("signature %d, %s, packed %v, mode %d, key width %T, width %T, domain %d", sig, form.name, pack, mode, c0[:0], a[:0], domain)
				got, want := NewAggTable(lanes, 1), NewAggTable(lanes, 1)
				if !hashed {
					got, want = NewDenseAggTable(lanes, form.lo, form.hi, pack), NewDenseAggTable(lanes, form.lo, form.hi, pack)
				}
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
						switch {
						case mode == pairs:
							m = nil
						case hashed && mode == keyMask:
							vec.MaskKeysU(keys, m, NullKey, masked)
							keys = masked[:hi-lo]
						}
						form.fold(got, lo, hi, keys, m, mode == keyMask)
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
						switch {
						case sig == sigSum1:
							perLane(want, keys, first, m, mode)
							continue
						case sig == sigMinMax:
							first = nil
						}
						switch {
						case mode == keyMask && !hashed:
							want.FoldTileKeyMasked(keys, slots, 0, first, m)
						case mode == keyMask:
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
						case sigSum2:
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
}

// perLane is FoldSum1's reference: a lane at a time, Lookup resolves its key
// (NullKey to the throwaway record, one outside the domain panics) and Add
// folds its value — AddMasked under its mask for value masking, and every
// rejected lane into the throwaway record whole under key masking.
func perLane(t *AggTable, keys, vals []int64, cmp []byte, mode int) {
	for i, k := range keys {
		slot := t.Lookup(k)
		switch {
		case mode == valueMask:
			t.AddMasked(slot, 0, vals[i], cmp[i])
			continue
		case mode == keyMask && cmp[i] == 0:
			slot = -1
		}
		t.Add(slot, 0, vals[i])
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
func fuseSig[K, T vec.Number](tab *AggTable, sig uint8, k TileKey[K], a, b, c []T, m []byte, keyMask bool) {
	switch sig {
	case sigSum1:
		if k.M0 != 0 { // two key columns: FoldSum1 reads one, packed in int64
			keys := make([]int64, len(k.K1))
			for i := range keys {
				keys[i] = int64(k.K0[i])*k.M0 + int64(k.K1[i])
			}
			FoldSum1(tab, keys, k.Add, a, m, keyMask)
			return
		}
		FoldSum1(tab, k.K1, k.Add, a, m, keyMask)
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
