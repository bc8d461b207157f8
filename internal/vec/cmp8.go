package vec

import "unsafe"

// Eight-lane int8 compares. An int8 tile is read eight lanes to a 64-bit
// word, one comparison over the word's bytes (SWAR) sets each byte's top bit
// where its lane passes, and a shift makes the top bits eight 0/1 mask lanes
// written with one store; a tail of under eight lanes runs the same formula a
// byte at a time. The six operators need three loops: x < k (LT, GE as its
// inverse, and LE and GT as x < c+1), equality (EQ, NE) and BETWEEN.

const (
	top8 = 0x8080808080808080 // every byte's top bit
	low7 = 0x7f7f7f7f7f7f7f7f // every byte's low seven bits
)

// bytesOf is vals' memory as bytes: an int8 lane is a byte.
func bytesOf(vals []int8) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals))
}

// lanes8 broadcasts an int8 to every byte of a word.
func lanes8(c int8) uint64 { return uint64(uint8(c)) * ones }

// below sets each byte's top bit where x's signed byte is below k's, for k
// the constant's bytes with their top bits flipped (which makes them order as
// unsigned) and kl = k&low7. Where the top bits agree x's decides; where they
// differ the borrow out of the low seven bits does, and t's top bit is its
// absence. Any byte of x works alone: a lane reads its own byte's bits.
func below(x, k, kl uint64) uint64 {
	t := (x | top8) - kl
	return (x ^ (x^k)&^(t^x)) & top8
}

// above sets each byte's top bit where x's signed byte is above c's (c
// broadcast as stored, ct = c|top8): below with the operands' roles exchanged.
func above(x, c, ct uint64) uint64 {
	t := ct - x&low7
	return (^x&c | ^(x^c)&^t) & top8
}

// CmpConstI8 is CmpConstU over int8 lanes, eight lanes a word.
func CmpConstI8(op CmpOp, vals []int8, c int8, out []byte) {
	switch {
	case op == EQ || op == NE:
		eq8(vals, c, op == EQ, out)
	case op == LT || op == GE:
		lt8(vals, c, op == GE, out)
	case c == 1<<7-1: // x > 127 never holds, x <= 127 always
		Fill(out[:len(vals)], b2i(op == LE))
	default: // x <= c is x < c+1, and x > c its inverse
		lt8(vals, c+1, op == GT, out)
	}
}

// The loops keep only word constants live: a tail lane runs the word's
// formula on its byte alone, so no loop needs c or inv after it starts.

// lt8 writes out[i] = (vals[i] < c) XOR inv.
func lt8(vals []int8, c int8, inv bool, out []byte) {
	v, i := bytesOf(vals), 0
	out = out[:len(v)]
	k, flip := lanes8(c)^top8, uint64(b2i(inv))*top8
	kl := k & low7
	for ; i+8 <= len(v); i += 8 {
		le.PutUint64(out[i:i+8:i+8], (below(le.Uint64(v[i:i+8:i+8]), k, kl)^flip)>>7)
	}
	for ; i < len(v); i++ {
		out[i] = byte((below(uint64(v[i]), k, kl) ^ flip) >> 7)
	}
}

// eq8 writes out[i] = (vals[i] == c) when eq, else (vals[i] != c): a byte of
// x XOR c is nonzero where its low seven bits carry into the top or the top
// is set.
func eq8(vals []int8, c int8, eq bool, out []byte) {
	v, i := bytesOf(vals), 0
	out = out[:len(v)]
	cb, flip := lanes8(c), uint64(b2i(eq))*top8
	for ; i+8 <= len(v); i += 8 {
		z := le.Uint64(v[i:i+8:i+8]) ^ cb
		le.PutUint64(out[i:i+8:i+8], ((z&low7+low7|z)&top8^flip)>>7)
	}
	for ; i < len(v); i++ {
		z := uint64(v[i]) ^ cb
		out[i] = byte(((z&low7+low7|z)&top8 ^ flip) >> 7)
	}
}

// CmpBetweenI8 is CmpConstBetweenU over int8 lanes, eight lanes a word: a
// lane passes unless it is below lo or above hi (so none does when lo > hi).
func CmpBetweenI8(vals []int8, lo, hi int8, out []byte) {
	v, i := bytesOf(vals), 0
	out = out[:len(v)]
	k, h := lanes8(lo)^top8, lanes8(hi)
	kl, ht := k&low7, h|top8
	for ; i+8 <= len(v); i += 8 {
		x := le.Uint64(v[i : i+8 : i+8])
		le.PutUint64(out[i:i+8:i+8], (^(below(x, k, kl)|above(x, h, ht))&top8)>>7)
	}
	for ; i < len(v); i++ {
		x := uint64(v[i])
		out[i] = byte((^(below(x, k, kl) | above(x, h, ht)) & top8) >> 7)
	}
}
