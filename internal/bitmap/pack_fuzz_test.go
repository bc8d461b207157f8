package bitmap

import (
	"slices"
	"testing"
)

// FuzzBitmapPack holds the packed SetFromCmp and OrFromCmp — 64 lanes per
// word between bit-at-a-time ends — to the bit-at-a-time loops
// they replaced, kept here as the reference: for any 0/1 mask of 0 to
// 2·1024+63 lanes at any base, over a bitmap with stale bits everywhere,
// every word agrees, so bits outside [base, base+len) stay untouched.

const fuzzMaxLanes = 2*1024 + 63

func refSet(b *Bitmap, base int, cmp []byte) {
	for j, v := range cmp {
		b.SetTo(base+j, v)
	}
}

func refOr(b *Bitmap, base int, cmp []byte) {
	for j, v := range cmp {
		b.OrBit(base+j, v)
	}
}

func FuzzBitmapPack(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1}, uint16(1), uint16(7))
	f.Add([]byte{0xff, 0, 0x55}, uint16(63), uint16(65))
	f.Add([]byte{1}, uint16(0), uint16(1024))
	f.Add([]byte{0, 1}, uint16(64), uint16(fuzzMaxLanes))
	f.Add([]byte{}, uint16(1000), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, base16, n uint16) {
		base, l := int(base16)%4096, int(n)%(fuzzMaxLanes+1)
		cmp := make([]byte, l)
		for i := range cmp {
			if len(data) > 0 {
				cmp[i] = data[i%len(data)] & 1
			}
		}
		// Stale bits everywhere, from the same bytes at another phase.
		stale := func() *Bitmap {
			b := New(base + l + 130)
			for i := 0; i < b.Len(); i++ {
				if len(data) > 0 && data[(i+5)%len(data)]>>1&1 == 1 {
					b.Set(i)
				}
			}
			return b
		}
		got, want := stale(), stale()
		got.SetFromCmp(base, cmp)
		refSet(want, base, cmp)
		if !slices.Equal(got.words, want.words) {
			t.Fatalf("SetFromCmp: base=%d len=%d differs from the bit loop", base, l)
		}
		got, want = stale(), stale()
		got.OrFromCmp(base, cmp)
		refOr(want, base, cmp)
		if !slices.Equal(got.words, want.words) {
			t.Fatalf("OrFromCmp: base=%d len=%d differs from the bit loop", base, l)
		}
	})
}
