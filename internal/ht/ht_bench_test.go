package ht

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/reprolab/swole/internal/vec"
)

// Benchmarks pinning the cost model's ht_lookup / ht_null terms: lookups
// across table sizes (cache classes) and the throwaway fast path key masking
// relies on.

var sinkSlot int

func benchTable(keys int) (*AggTable, []int64) {
	t := NewAggTable(1, keys)
	probe := make([]int64, 1<<14)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < keys; i++ {
		t.Add(t.Lookup(int64(i)), 0, 1)
	}
	for i := range probe {
		probe[i] = int64(rng.Intn(keys))
	}
	return t, probe
}

func BenchmarkAggLookupByCacheClass(b *testing.B) {
	for _, keys := range []int{64, 8192, 262144, 2 << 20} {
		t, probe := benchTable(keys)
		b.Run(size(keys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkSlot += t.Lookup(probe[i&(len(probe)-1)])
			}
		})
	}
}

func BenchmarkThrowawayLookup(b *testing.B) {
	t, _ := benchTable(2 << 20)
	b.Run("null-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkSlot += t.Lookup(NullKey) // cached throwaway, no hash
		}
	})
}

func BenchmarkSetProbe(b *testing.B) {
	s := NewSetTable(1 << 20)
	for i := 0; i < 1<<20; i++ {
		s.Add(int64(i * 3))
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if s.Contains(int64(i & (1<<21 - 1))) {
			hits++
		}
	}
	sinkSlot += hits
}

// BenchmarkJoinProbe is BenchmarkSetProbe on a join table: a hit also loads
// its row.
func BenchmarkJoinProbe(b *testing.B) {
	t := NewJoinTable(1 << 20)
	for i := 0; i < 1<<20; i++ {
		t.Insert(int64(i*3), int32(i))
	}
	b.ResetTimer()
	sum := int32(0)
	for i := 0; i < b.N; i++ {
		if row, ok := t.Probe(int64(i & (1<<21 - 1))); ok {
			sum += row
		}
	}
	sinkSlot += int(sum)
}

func size(keys int) string {
	switch {
	case keys < 1<<10:
		return "L1"
	case keys < 1<<15:
		return "L2"
	case keys < 1<<19:
		return "LLC"
	default:
		return "mem"
	}
}

// BenchmarkAggFoldForms folds the same 2M (key, value, mask) tuples, 50%
// masked, into each form of the table at three key domains and walks the
// result: the kernel-level measurement behind the form selection rule
// (EXPERIMENTS.md). "pertuple" is the Lookup+AddMasked loop a kernel may
// write itself; "tile" is FoldTile over 1024-pair tiles (FoldSum1's pair
// loop on a key-addressed table, LookupTile and the slot fold on a hashed
// one). The fold/*
// rows are the tile pipeline's grouped fold over 7 skewed keys (half the rows
// on one), 100 and 100K keys: "onepass" is FoldTile, "threepass" the
// LookupTile, count loop and SumTile it replaced, and "keymask" key masking
// under the same 50% mask — FoldTileKeyMasked on a key-addressed table,
// vec.MaskKeysU and FoldTile on a hashed one.
func BenchmarkAggFoldForms(b *testing.B) {
	const rows = 2 << 20
	input := func(domain int, skew bool) (keys, vals []int64, cmp []byte) {
		keys, vals, cmp = make([]int64, rows), make([]int64, rows), make([]byte, rows)
		for i := range keys {
			h := hash64(uint64(i) + 1)
			keys[i] = int64(h % uint64(domain))
			if skew {
				keys[i] = int64(min(bits.TrailingZeros64(h), domain-1))
			}
			vals[i] = int64(h>>40) & 127
			cmp[i] = byte(h>>20) & 1
		}
		return keys, vals, cmp
	}
	type form struct {
		name string
		tab  *AggTable
	}
	forms := func(domain int) []form {
		return []form{
			{"hashed", NewAggTable(1, domain)},
			{"dense", NewDenseAggTable(1, 0, int64(domain-1), false)},
			{"packed", NewDenseAggTable(1, 0, int64(domain-1), true)}, // 2M values < 128: every sum fits int32
		}
	}
	var out []int64
	run := func(b *testing.B, tab *AggTable, fold func()) {
		for i := 0; i < b.N; i++ {
			tab.Reset()
			fold()
			out = tab.AppendGroups(out[:0])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
	}
	for _, domain := range []int{100, 100_000, 1_000_000} {
		keys, vals, cmp := input(domain, false)
		for _, f := range forms(domain) {
			tab := f.tab
			b.Run(f.name+"/pertuple/"+size(domain), func(b *testing.B) {
				run(b, tab, func() {
					for i, k := range keys {
						tab.AddMasked(tab.Lookup(k), 0, vals[i], cmp[i])
					}
				})
			})
			slots := make([]int32, 1024)
			b.Run(f.name+"/tile/"+size(domain), func(b *testing.B) {
				run(b, tab, func() {
					for t := 0; t < rows; t += 1024 {
						tab.FoldTile(keys[t:t+1024], slots, 0, vals[t:t+1024], cmp[t:t+1024])
					}
				})
			})
		}
	}
	slots, masked := make([]int32, 1024), make([]int64, 1024)
	for _, d := range []struct {
		name   string
		domain int
		skew   bool
	}{{"k7skew", 7, true}, {"k100", 100, false}, {"k100K", 100_000, false}} {
		keys, vals, cmp := input(d.domain, d.skew)
		for _, f := range forms(d.domain) {
			tab := f.tab
			b.Run("fold/"+f.name+"/onepass/"+d.name, func(b *testing.B) {
				run(b, tab, func() {
					for t := 0; t < rows; t += 1024 {
						tab.FoldTile(keys[t:t+1024], slots, 0, vals[t:t+1024], cmp[t:t+1024])
					}
				})
			})
			b.Run("fold/"+f.name+"/keymask/"+d.name, func(b *testing.B) {
				run(b, tab, func() {
					for t := 0; t < rows; t += 1024 {
						k, v, m := keys[t:t+1024], vals[t:t+1024], cmp[t:t+1024]
						if tab.span == 0 {
							vec.MaskKeysU(k, m, NullKey, masked)
							tab.FoldTile(masked, slots, 0, v, m)
						} else {
							tab.FoldTileKeyMasked(k, slots, 0, v, m)
						}
					}
				})
			})
			b.Run("fold/"+f.name+"/threepass/"+d.name, func(b *testing.B) {
				run(b, tab, func() {
					for t := 0; t < rows; t += 1024 {
						tab.LookupTile(keys[t:t+1024], slots)
						refCount(tab, slots, cmp[t:t+1024])
						tab.SumTile(slots, 0, vals[t:t+1024], cmp[t:t+1024])
					}
				})
			})
		}
	}
	// The fused record folds against the lane-by-lane form they replace, at
	// int8 and int32 argument widths over the same keys and 50% mask:
	// "perlane" widens the arguments, folds the count (and the first sum)
	// with FoldTile and the next lane with SumTile, or MinTile and MaxTile;
	// "fused" is FoldSum2 ("lanes3": count + two sums) or FoldMinMax, reading
	// the arguments in place. A hashed table resolves its slots first.
	for _, d := range []struct {
		name   string
		domain int
		skew   bool
	}{{"k7skew", 7, true}, {"k100", 100, false}, {"k100K", 100_000, false}} {
		keys, vals, cmp := input(d.domain, d.skew)
		for _, form := range []string{"hashed", "dense"} {
			tab := func(minmax bool) *AggTable {
				t := NewAggTable(2, d.domain)
				if form == "dense" {
					t = NewDenseAggTable(2, 0, int64(d.domain-1), false)
				}
				if minmax {
					t.SetIdentity(0, math.MaxInt64)
					t.SetIdentity(1, math.MinInt64)
				}
				return t
			}
			name := "fold/" + form + "/%s/%s/w%d/" + d.name
			benchFusedForms(b, name, tab, keys, narrow[int8](vals), cmp)
			benchFusedForms(b, name, tab, keys, narrow[int32](vals), cmp)
		}
	}
	// The one-sum record, fused and per lane, at 100, 100K and 1M keys: its
	// footprint crosses the bound above which a statement keeps the lane
	// passes (core's fuseBytes). Keys are stored at int32, as r_c's and
	// r_fk's are; "perlane" widens the key and the argument and runs FoldTile
	// (FoldSum1's pair loop at int64), "fused" runs FoldSum1 on both in place.
	for _, domain := range []int{100, 100_000, 1_000_000} {
		keys, vals, cmp := input(domain, false)
		for _, packed := range []bool{false, true} {
			name := "fold/dense/lanes1/%s/w%d/" + size(domain)
			if packed {
				name = "fold/packed/lanes1/%s/w%d/" + size(domain)
			}
			tab := NewDenseAggTable(1, 0, int64(domain-1), packed)
			k32 := narrow[int32](keys)
			benchFusedOne(b, name, tab, k32, narrow[int8](vals), cmp)
			benchFusedOne(b, name, tab, k32, narrow[int32](vals), cmp)
		}
	}
	sinkSlot += len(out)
}

// benchFusedOne runs BenchmarkAggFoldForms' one-sum rows for one argument
// width: per lane and fused, under a 50% value mask.
func benchFusedOne[T vec.Number](b *testing.B, name string, tab *AggTable, keys []int32, vals []T, cmp []byte) {
	const rows, tile = 2 << 20, 1024
	width := int(unsafe.Sizeof(vals[0])) * 8
	slots, wk, wa := make([]int32, tile), make([]int64, tile), make([]int64, tile)
	for _, form := range []string{"perlane", "fused"} {
		b.Run(fmt.Sprintf(name, form, width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab.Reset()
				for r := 0; r < rows; r += tile {
					k, a, m := keys[r:r+tile], vals[r:r+tile], cmp[r:r+tile]
					if form == "fused" {
						FoldSum1(tab, k, 0, a, m, false)
						continue
					}
					vec.WidenU(k, wk)
					vec.WidenU(a, wa)
					tab.FoldTile(wk, slots, 0, wa, m)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// narrow copies vals at a stored width.
func narrow[T vec.Number](vals []int64) []T {
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = T(v)
	}
	return out
}

// benchFusedForms runs BenchmarkAggFoldForms' fused rows for one argument
// width: lanes3 and minmax, per lane and fused, over tables tab builds. The
// second sum's argument is the first's, reversed.
func benchFusedForms[T vec.Number](b *testing.B, name string, tab func(minmax bool) *AggTable, keys []int64, vals []T, cmp []byte) {
	const rows, tile = 2 << 20, 1024
	width := int(unsafe.Sizeof(vals[0])) * 8
	other := slices.Clone(vals)
	slices.Reverse(other)
	slots, wa, wb := make([]int32, tile), make([]int64, tile), make([]int64, tile)
	run := func(kernel, form string, minmax bool, fold func(t *AggTable, k []int64, a, o []T, m []byte)) {
		t := tab(minmax)
		b.Run(fmt.Sprintf(name, kernel, form, width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.Reset()
				for r := 0; r < rows; r += tile {
					fold(t, keys[r:r+tile], vals[r:r+tile], other[r:r+tile], cmp[r:r+tile])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
	key := func(t *AggTable, k []int64) TileKey[int32] {
		t.LookupTile(k, slots)
		return TileKey[int32]{K0: slots, K1: slots}
	}
	run("lanes3", "perlane", false, func(t *AggTable, k []int64, a, o []T, m []byte) {
		vec.WidenU(a, wa)
		vec.WidenU(o, wb)
		t.FoldTile(k, slots, 0, wa, m)
		t.SumTile(slots, 1, wb, m)
	})
	run("lanes3", "fused", false, func(t *AggTable, k []int64, a, o []T, m []byte) {
		if t.span == 0 {
			FoldSum2(t, key(t, k), a, o, m, false)
		} else {
			FoldSum2(t, TileKey[int64]{K0: k, K1: k}, a, o, m, false)
		}
	})
	run("minmax", "perlane", true, func(t *AggTable, k []int64, a, _ []T, m []byte) {
		vec.WidenU(a, wa)
		t.FoldTile(k, slots, 0, nil, m)
		t.MinTile(slots, 0, wa, m)
		t.MaxTile(slots, 1, wa, m)
	})
	run("minmax", "fused", true, func(t *AggTable, k []int64, a, _ []T, m []byte) {
		if t.span == 0 {
			FoldMinMax(t, key(t, k), a, m, false)
		} else {
			FoldMinMax(t, TileKey[int64]{K0: k, K1: k}, a, m, false)
		}
	})
}
