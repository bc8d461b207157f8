//go:build !purego

package vec

// HasAVX2 reports whether the CPU and the operating system run AVX2 and
// POPCNT, which every kernel of this package's assembly needs: SumFusedI8,
// GroupFold, AndBits, SelectBits, Filter and CmpRangeU's one-leaf filter. It
// is set once, at package initialisation.
var HasAVX2 = avx2()

// avx2 reads CPUID and XCR0: AVX2 and POPCNT present, and YMM state saved by
// the OS.
func avx2() bool

// fusedI8 is SumFusedI8's loop over n lanes: whole 16-lane steps, then, when
// n is not a multiple of 16, one step over the last 16 lanes that fails the
// ones the loop took. k holds each compare's Lo, Hi and Not (-1 or 0).
//
//go:noescape
func fusedI8(x, y, a, b *int8, n int, k *[6]int16) (count, sum int64)
