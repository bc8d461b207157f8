package vec

// Small group tables in one SIMD pass: GroupFold folds a tile into a
// key-addressed group table of at most GroupSlots records, keyed by int8
// columns, as AVX2 assembly (group_amd64.s) where the Go loops scatter one
// lane at a time. One pass computes each lane's slot byte, 32 lanes a step,
// from K0·M0 + K1 + C in int16 lanes, and ORs together whether any lane fell
// outside the domain; then one pass per slot compares the slot bytes with it
// and folds the lanes that match: the count (byte lanes), an int8 sum
// (VPMADDUBSW pair sums into int16 lanes, exact for a tile), an int32 sum
// (int32 lanes where NarrowI32 proves them exact, else int64 lanes) and an
// int32 min and max. As in Filter.Fold, a length that is not a multiple of
// 32 ends in a step over the last 32 lanes, with the lanes the loop took
// marked as no slot (from the mask table ·taken). HasAVX2 reports whether this CPU runs it; a build without the
// kernel has none, and callers keep to the Go loops there.

// GroupSlots bounds GroupFold's table: the domain and, under key masking,
// the throwaway record. Over it one pass per slot reads the tile too often
// to beat the Go loop (EXPERIMENTS.md, "Small group tables in one SIMD
// pass").
const GroupSlots = 16

// GroupKey is GroupFold's keys: lane i's slot is K0[i]·M0 + K1[i] + C, which
// must lie in [0, Span).
type GroupKey struct {
	K0, K1 []int8
	M0, C  int64
	Span   int
}

// GroupArg is one argument GroupFold folds: the sum of an int8 column (I8)
// or of an int32 one (I32), widened to int64 lanes every step under Wide; or,
// under MinMax, the min and the max of I32.
type GroupArg struct {
	I8     []int8
	I32    []int32
	Wide   bool
	MinMax bool
}

// GroupSums is GroupFold's result per slot: the lanes counted and each
// argument's sum, or the min and the max in Lane[0] and Lane[1]. A slot that
// counted no lane holds int32's max and min there.
type GroupSums struct {
	Count [GroupSlots]int64
	Lane  [2][GroupSlots]int64
}

// NarrowI32 reports whether int32 lane sums of a tile over values in
// [lo, hi] are exact: each of a step's eight int32 lanes adds at most
// TileSize/8 values, so TileSize/8 · max|v| must stay below 2^31.
func NarrowI32(lo, hi int64) bool {
	return max(-lo, hi) < (1<<31)/(TileSize/8)
}

// GroupFold folds the n = len(k.K1) lanes, 32 <= n <= TileSize, of a tile
// into out's first k.Span slots, and the throwaway record's, slot k.Span,
// under keyMask: a lane whose cmp byte is 0 counts into slot k.Span under
// key masking and into no slot otherwise. Each of a and b, where given,
// folds into its lane of out. k.K0, cmp and the arguments hold at least n
// lanes. It folds nothing and returns false where the kernel does not serve
// the tile: a CPU without AVX2 (HasAVX2), a key outside [0, k.Span), a table
// of more than GroupSlots records, n out of range, or K0·M0 + K1 + C leaving
// int16 for some int8 K0 and K1.
func GroupFold(k *GroupKey, cmp []byte, keyMask bool, a, b GroupArg, out *GroupSums) bool {
	n, nslots := len(k.K1), k.Span+int(b2i(keyMask))
	if !HasAVX2 || n < 32 || n > TileSize || k.Span < 1 || nslots > GroupSlots || k.M0 < -127 || k.M0 > 127 || k.C < -16383 || k.C > 16383 {
		return false
	}
	_, _ = k.K0[n-1], cmp[n-1]
	g := [4]int16{int16(k.M0), int16(k.C), int16(k.Span - 1), 0xff}
	if keyMask {
		g[3] = int16(k.Span)
	}
	var slots [TileSize + 32]byte
	if groupSlots(&k.K0[0], &k.K1[0], &cmp[0], n, &g, &slots[0]) {
		return false
	}
	for j, arg := range [2]GroupArg{a, b} {
		switch {
		case arg.MinMax:
			groupMinMaxI32(&slots[0], n, &arg.I32[:n][0], nslots, &out.Count, &out.Lane[0], &out.Lane[1])
		case arg.I8 != nil:
			groupSumI8(&slots[0], n, &arg.I8[:n][0], nslots, &out.Count, &out.Lane[j])
		case arg.I32 != nil && arg.Wide:
			groupSumI32W(&slots[0], n, &arg.I32[:n][0], nslots, &out.Count, &out.Lane[j])
		case arg.I32 != nil:
			groupSumI32(&slots[0], n, &arg.I32[:n][0], nslots, &out.Count, &out.Lane[j])
		}
	}
	return true
}
