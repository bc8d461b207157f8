//go:build !amd64 || purego

package vec

// HasAVX2 is false on a build without the AVX2 kernels: callers keep to the
// Go loops.
const HasAVX2 = false

func fusedI8(x, y, a, b *int8, n int, k *[6]int16) (count, sum int64) {
	panic("vec: SumFusedI8 needs HasAVX2")
}
