//go:build !purego

package vec

// HasAVX2 reports whether the CPU and the operating system run AVX2 and
// POPCNT, which every kernel of this package's assembly needs. It is set
// once, at package initialisation.
var HasAVX2 = avx2()

// avx2 reads CPUID and XCR0: AVX2 and POPCNT present, and YMM state saved by
// the OS (cpuid_amd64.s).
func avx2() bool

// filterSteps is the Filter kernel over the n >= 32 lanes from row base of
// the nleaves leaves' columns: whole 64-lane steps, then, when n is not a
// multiple of 64, one step over the last 64 (under 64: the first and the last
// 32). It stores
// each lane's 0 or 1 at out[row-base], or without out returns Fold's count
// and sum, exact for n <= TileSize+31.
//
//go:noescape
func filterSteps(leaves *filterLeaf, nleaves, base, n int, out *byte, a, b *int8) (count, sum int64)
