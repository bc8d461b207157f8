//go:build !amd64 || purego

package vec

// HasAVX2 is false on a build without the AVX2 kernels: callers keep to the
// Go loops.
const HasAVX2 = false

func filterSteps(leaves *filterLeaf, nleaves, base, n int, out *byte, a, b *int8) (count, sum int64) {
	panic("vec: Filter needs HasAVX2")
}
