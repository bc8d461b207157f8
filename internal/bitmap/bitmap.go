// Package bitmap implements the positional bitmaps of SWOLE's Section
// III-D. A positional bitmap records, for each build-side tuple *position*,
// whether the tuple qualifies; the probe side then checks membership with a
// positional lookup through the foreign-key index instead of probing a hash
// table. Because bit i corresponds to row i, a 100M-row table needs only
// ~12.5 MB, which stays cache-resident on the hardware classes the paper
// targets.
//
// Construction is the unconditional predicated store of the predicate result
// (a pure sequential write, SetFromCmp): a 0/1 byte mask moves into the
// bitmap 64 lanes per word (SetFromCmp, OrFromCmp). The paper's
// selection-vector driven alternative — one Set per qualifying row — went
// with its last caller, the semijoin hand plan. Combining bitmaps is
// word-wise.
//
// The probe tests one parent bit per lane, into a mask (AndGather) or
// narrowing a selection vector (SelectGather). Where vec.HasAVX2 both run
// AVX2 kernels over whole steps (vec.AndBits, vec.SelectBits), which gather
// eight lanes' bitmap words per instruction, and the Go loop takes the lanes
// after them; a position outside the bitmap panics either way.
package bitmap

import (
	"encoding/binary"
	"math/bits"

	"github.com/reprolab/swole/internal/vec"
)

// Bitmap is a fixed-length positional bitmap over row offsets [0, Len).
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a bitmap covering n positions, all unset.
func New(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of positions the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Bytes returns the in-memory size of the bit array, used by the cost model
// for cache-class placement.
func (b *Bitmap) Bytes() int { return len(b.words) * 8 }

// Set sets bit i to 1.
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// SetTo writes v (0 or 1) to bit i unconditionally — the predicated store
// used when the value-masking cost model favours a pure sequential pass.
func (b *Bitmap) SetTo(i int, v byte) {
	w := &b.words[i>>6]
	bit := uint64(1) << (uint(i) & 63)
	*w = (*w &^ bit) | (uint64(v) << (uint(i) & 63))
}

// OrBit ORs v (0 or 1) into bit i without branching — the accumulation
// used when several build tuples map to the same probe position, as in
// semijoins against a many-to-one foreign key (TPC-H Q4: many lineitems
// set the bit of one order).
func (b *Bitmap) OrBit(i int, v byte) {
	b.words[i>>6] |= uint64(v) << (uint(i) & 63)
}

// Test reports whether bit i is set.
func (b *Bitmap) Test(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// TestBit returns bit i as 0 or 1, for branch-free masked aggregation on
// the probe side.
func (b *Bitmap) TestBit(i int) byte {
	return byte(b.words[i>>6] >> (uint(i) & 63) & 1)
}

// A 0/1 byte mask and a bitmap hold the same lanes at one byte and one bit
// each, and eight lanes convert per multiply: pack8 gathers the low bit of
// each byte of a mask word into a byte (no two partial products share a
// bit, so nothing carries).
const packMul = 0x0102040810204080

func pack8(w uint64) uint64 { return w * packMul >> 56 }

// pack64 packs the 64 lanes of cmp into a bitmap word.
func pack64(cmp []byte) uint64 {
	_ = cmp[63]
	var w uint64
	for k := 0; k < 8; k++ {
		w |= pack8(binary.LittleEndian.Uint64(cmp[8*k:])) << (8 * k)
	}
	return w
}

// SetFromCmp writes a tile of predicate results into positions
// [base, base+len(cmp)). Every lane is stored unconditionally, so the write
// pattern is strictly sequential regardless of selectivity: 64 lanes per
// word store once base reaches a word boundary (a vec.TileSize tile at an
// aligned base is 16 stores), a bit at a time before and after.
func (b *Bitmap) SetFromCmp(base int, cmp []byte) {
	j, n := 0, len(cmp)
	for ; j < n && (base+j)&63 != 0; j++ {
		b.SetTo(base+j, cmp[j])
	}
	for w := (base + j) >> 6; j+64 <= n; j, w = j+64, w+1 {
		b.words[w] = pack64(cmp[j : j+64])
	}
	for ; j < n; j++ {
		b.SetTo(base+j, cmp[j])
	}
}

// OrFromCmp ORs a tile of predicate results into positions
// [base, base+len(cmp)) — the accumulation step of term-at-a-time
// evaluation, where each term contributes its accepted positions without
// disturbing bits earlier terms set — 64 lanes per word like SetFromCmp.
func (b *Bitmap) OrFromCmp(base int, cmp []byte) {
	j, n := 0, len(cmp)
	for ; j < n && (base+j)&63 != 0; j++ {
		b.OrBit(base+j, cmp[j])
	}
	for w := (base + j) >> 6; j+64 <= n; j, w = j+64, w+1 {
		b.words[w] |= pack64(cmp[j : j+64])
	}
	for ; j < n; j++ {
		b.OrBit(base+j, cmp[j])
	}
}

// AndGather ANDs bit pos[j] into cmp[j] for every lane — the probe side of a
// positional-bitmap join a tile at a time: pos holds the parent positions
// the foreign-key index resolved for the tile's rows, and a lane survives
// only if its parent qualified.
func (b *Bitmap) AndGather(pos []int32, cmp []byte) {
	if len(pos) == 0 {
		return
	}
	words := b.words
	_ = cmp[len(pos)-1]
	i := vec.AndBits(words, pos, cmp)
	for j, p := range pos[i:] {
		cmp[i+j] &= byte(words[uint32(p)>>6] >> (uint32(p) & 63) & 1)
	}
}

// SelectGather is AndGather for a selection vector: it keeps, in order and in
// place, the lanes j of sel whose parent pos[j] is set, and returns how many
// it kept. The other lanes of pos are not read.
func (b *Bitmap) SelectGather(pos []int32, sel []int32) int {
	words := b.words
	i, k := vec.SelectBits(words, pos, sel)
	for _, j := range sel[i:] {
		p := uint32(pos[j])
		sel[k] = j
		k += int(words[p>>6] >> (p & 63) & 1)
	}
	return k
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And intersects other into b. Both bitmaps must cover the same length.
// TPC-H Q19 resolves its disjunctive join condition to a union of
// semijoins over per-branch bitmaps; And/Or compose such bitmaps.
func (b *Bitmap) And(other *Bitmap) {
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Or unions other into b.
func (b *Bitmap) Or(other *Bitmap) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// Reset re-dimensions the bitmap to cover n positions with every bit
// unset, reusing the existing word array whenever its capacity allows —
// the pooled-reuse entry point: a recycled bitmap Reset to the same build
// side performs no allocation, only a sequential clear.
func (b *Bitmap) Reset(n int) {
	words := (n + 63) / 64
	if cap(b.words) < words {
		b.words = make([]uint64, words)
	} else {
		b.words = b.words[:words]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}
