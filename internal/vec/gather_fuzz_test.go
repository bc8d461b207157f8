package vec

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzSelFromMask holds SelFromCmpAdaptive, 32 lanes a step in AVX2 where
// HasAVX2, to its Go loop: 0 to 2,063 lanes starting at any of 32 offsets
// into their backing arrays, set at a density of 0, 5, 50, 95 or 100 % or
// at random, each run's count, lanes and density class against the loop's.
// sel is poisoned past len(cmp), and no lane there may change: the eight-lane
// stores leave the lanes between the kept ones and len(cmp) undefined, in
// both loops, and write nothing after them.
func FuzzSelFromMask(f *testing.F) {
	f.Add(int64(1), uint16(1024), uint8(0), uint8(50))
	f.Add(int64(2), uint16(2063), uint8(31), uint8(5))
	f.Add(int64(3), uint16(31), uint8(1), uint8(95))
	f.Add(int64(4), uint16(32), uint8(7), uint8(100))
	f.Add(int64(5), uint16(33), uint8(3), uint8(0))
	f.Add(int64(6), uint16(0), uint8(0), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, off, pct uint8) {
		r := rand.New(rand.NewSource(seed))
		l, o := int(n)%2064, int(off%32)
		p := [...]int{0, 5, 50, 95, 100}
		density := r.Intn(101)
		if int(pct) < 5*len(p) {
			density = p[int(pct)%len(p)]
		}
		cmp := make([]byte, o+l)[o:]
		for i := range cmp {
			cmp[i] = b2i(r.Intn(100) < density)
		}
		const poison = -7
		sel := make([]int32, o+l+40)[o:]
		for i := range sel {
			sel[i] = poison
		}
		want := make([]int32, l)
		k, d := SelFromCmpAdaptive(cmp, sel[:l])
		wk := selFromCmpGo(cmp, 0, want, 0)
		if k != wk || d != classifyDensity(wk, l) || !slices.Equal(sel[:k], want[:wk]) {
			t.Fatalf("%d lanes at %d%%, off %d: kept %d (%v) %v, Go loop %d %v", l, density, o, k, d, sel[:k], wk, want[:wk])
		}
		if i := slices.IndexFunc(sel[l:], func(v int32) bool { return v != poison }); i >= 0 {
			t.Fatalf("%d lanes at %d%%, off %d: sel[%d] written, past the lanes", l, density, o, l+i)
		}
	})
}

// FuzzGatherSel holds GatherSel at each stored width, in the one-level form
// (a root column over the tile) and through lane-indexed positions (a parent
// column), and GatherPos in both forms, each in AVX2 steps where HasAVX2, to
// their Go loops: 0 to 1,031 lanes of sel, a random or strided subset of a tile,
// every slice starting at any of 32 offsets into its backing array so that
// int8 and int16 columns start at every alignment, positions sequential or
// at random, every 13th the column's first row and every 17th its last.
// No lane of out past sel changes.
func FuzzGatherSel(f *testing.F) {
	f.Add(int64(1), uint16(1024), uint16(5000), uint8(0), uint8(0), false)
	f.Add(int64(2), uint16(1031), uint16(1), uint8(1), uint8(3), true)
	f.Add(int64(3), uint16(7), uint16(9), uint8(2), uint8(1), false)
	f.Add(int64(4), uint16(8), uint16(64), uint8(3), uint8(0), true)
	f.Add(int64(5), uint16(300), uint16(65535), uint8(31), uint8(2), false)
	f.Add(int64(6), uint16(0), uint16(3), uint8(5), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n, rows uint16, off, stride uint8, random bool) {
		r := rand.New(rand.NewSource(seed))
		l, o, nr := int(n)%(TileSize+8), int(off%32), 1+int(rows)
		src := make([]int32, o+l)[o:]
		for i := range src {
			switch {
			case i%13 == 0:
				src[i] = 0
			case i%17 == 0:
				src[i] = int32(nr - 1)
			case random:
				src[i] = int32(r.Intn(nr))
			default:
				src[i] = int32(i % nr)
			}
		}
		sel := make([]int32, o+l)[o:o]
		for j := 0; j < l; j++ {
			if stride == 0 && r.Intn(2) == 0 || stride > 0 && j%int(stride) == 0 {
				sel = append(sel, int32(j))
			}
		}
		root := sel
		if len(root) > 0 && root[len(root)-1] >= int32(nr) {
			root = nil
			for _, j := range sel {
				if j < int32(nr) {
					root = append(root, j)
				}
			}
		}
		checkGatherSel[int8](t, r, o, nr, src, sel, root)
		checkGatherSel[int16](t, r, o, nr, src, sel, root)
		checkGatherSel[int32](t, r, o, nr, src, sel, root)
		checkGatherSel[int64](t, r, o, nr, src, sel, root)

		fk := make([]int32, o+nr)[o:]
		for i := range fk {
			fk[i] = int32(r.Uint32())
		}
		for _, c := range []struct {
			form   string
			src, s []int32
		}{{"root", nil, root}, {"edge", src, sel}} {
			out, want := make([]int32, len(c.s)+8), make([]int32, len(c.s)+8)
			for i := range out {
				out[i], want[i] = -7, -7
			}
			GatherPos(fk, c.src, c.s, out)
			gatherPosGo(fk, c.src, c.s, want)
			if !slices.Equal(out, want) {
				t.Fatalf("GatherPos %s: %d rows, %d lanes, off %d: %v, Go loop %v", c.form, nr, len(c.s), o, out, want)
			}
		}
	})
}

// checkGatherSel is one width of FuzzGatherSel: root indexes the column
// directly, sel through src.
func checkGatherSel[T Number](t *testing.T, r *rand.Rand, o, nr int, src, sel, root []int32) {
	t.Helper()
	vals := make([]T, o+nr)[o:]
	for i := range vals {
		vals[i] = T(r.Uint64())
	}
	for _, c := range []struct {
		form   string
		src, s []int32
	}{{"root", nil, root}, {"edge", src, sel}} {
		form, src, s := c.form, c.src, c.s
		out, want := make([]int64, len(s)+8), make([]int64, len(s)+8)
		for i := range out {
			out[i], want[i] = -7, -7
		}
		GatherSel(vals, src, s, out)
		gatherSelGo(vals, src, s, want)
		if !slices.Equal(out, want) {
			t.Fatalf("GatherSel %T %s: %d rows, %d lanes, off %d: %v, Go loop %v", vals, form, nr, len(s), o, out, want)
		}
	}
}
