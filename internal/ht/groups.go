package ht

import "github.com/reprolab/swole/internal/vec"

// Small group tables: FoldSum1, FoldSum2 and FoldMinMax on a key-addressed
// table of at most vec.GroupSlots records, the throwaway record included,
// keyed by int8 columns, folded a tile at a time by vec.GroupFold's AVX2
// passes: one pass computes each lane's slot, then one pass per slot sums
// its lanes, and the sums are added into the records — a packed word as
// sum<<32 + count — so each table ends bit for bit as the Go loop leaves it.
// A tile the kernel does not serve — under 32 lanes, or with a key outside
// the domain — folds through the Go loop, which vets the key as it always
// does: the same panic, NullKey to the throwaway record; so does every tile
// where the CPU does not run AVX2 (vec.HasAVX2). wide[i] widens argument
// i's int32 sums (the column's range does not prove vec.NarrowI32).

// arg8or32 is the argument widths the AVX2 fold reads.
type arg8or32 interface{ int8 | int32 }

// groupArg is a tile's argument as vec.GroupFold reads it.
func groupArg[A arg8or32](a []A, wide bool) vec.GroupArg {
	switch a := any(a).(type) {
	case []int8:
		return vec.GroupArg{I8: a}
	case []int32:
		return vec.GroupArg{I32: a, Wide: wide}
	}
	return vec.GroupArg{}
}

// groupFold runs vec.GroupFold over lanes [i, j) of k and reports the slots
// it folded into g, or 0 where the Go loop must fold them.
func (t *AggTable) groupFold(k TileKey[int8], i, j int, cmp []byte, keyMask bool, a, b vec.GroupArg, g *vec.GroupSums) int {
	key := vec.GroupKey{K0: k.K0[i:j], K1: k.K1[i:j], M0: k.M0, C: k.Add - t.lo, Span: int(t.span)}
	if t.span == 0 || !vec.GroupFold(&key, cmp[i:j], keyMask, a, b, g) {
		return 0
	}
	if keyMask {
		return key.Span + 1
	}
	return key.Span
}

// FoldSum1Groups is FoldSum1 (keys[i] + add, a packed or a keyed table,
// under a mask) by the AVX2 fold.
func FoldSum1Groups[A arg8or32](t *AggTable, keys []int8, add int64, a []A, cmp []byte, keyMask, wide bool) {
	k := TileKey[int8]{K0: keys, K1: keys, Add: add}
	for i := 0; i < len(keys); i += vec.TileSize {
		j := min(i+vec.TileSize, len(keys))
		var g vec.GroupSums
		n := t.groupFold(k, i, j, cmp, keyMask, groupArg(a[i:j], wide), vec.GroupArg{}, &g)
		if n == 0 {
			FoldSum1(t, keys[i:j], add, a[i:j], cmp[i:j], keyMask)
			continue
		}
		if t.packed() {
			recs := t.recs[:n]
			for s := range recs {
				recs[s] += g.Lane[0][s]<<32 + g.Count[s]
			}
			continue
		}
		recs := t.recs[:2*n]
		for s := range n {
			recs[2*s] += g.Lane[0][s]
			recs[2*s+1] += g.Count[s]
		}
	}
}

// FoldSum2Groups is FoldSum2 by the AVX2 fold.
func FoldSum2Groups[A, B arg8or32](t *AggTable, k TileKey[int8], a []A, b []B, cmp []byte, keyMask bool, wide [2]bool) {
	for i := 0; i < len(k.K1); i += vec.TileSize {
		j := min(i+vec.TileSize, len(k.K1))
		var g vec.GroupSums
		n := t.groupFold(k, i, j, cmp, keyMask, groupArg(a[i:j], wide[0]), groupArg(b[i:j], wide[1]), &g)
		if n == 0 {
			FoldSum2(t, k.tile(i, j), a[i:j], b[i:j], cmp[i:j], keyMask)
			continue
		}
		recs := t.recs[:3*n]
		for s := range n {
			recs[3*s] += g.Lane[0][s]
			recs[3*s+1] += g.Lane[1][s]
			recs[3*s+2] += g.Count[s]
		}
	}
}

// FoldMinMaxGroups is FoldMinMax over an int32 operand by the AVX2 fold.
func FoldMinMaxGroups(t *AggTable, k TileKey[int8], a []int32, cmp []byte, keyMask bool) {
	for i := 0; i < len(k.K1); i += vec.TileSize {
		j := min(i+vec.TileSize, len(k.K1))
		var g vec.GroupSums
		n := t.groupFold(k, i, j, cmp, keyMask, vec.GroupArg{I32: a[i:j], MinMax: true}, vec.GroupArg{}, &g)
		if n == 0 {
			FoldMinMax(t, k.tile(i, j), a[i:j], cmp[i:j], keyMask)
			continue
		}
		recs := t.recs[:3*n]
		for s := range n {
			if g.Count[s] > 0 {
				recs[3*s] = min(recs[3*s], g.Lane[0][s])
				recs[3*s+1] = max(recs[3*s+1], g.Lane[1][s])
				recs[3*s+2] += g.Count[s]
			}
		}
	}
}

// tile is lanes [i, j) of k.
func (k TileKey[K]) tile(i, j int) TileKey[K] {
	return TileKey[K]{K0: k.K0[i:j], K1: k.K1[i:j], M0: k.M0, Add: k.Add}
}
