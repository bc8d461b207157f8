//go:build !amd64 || purego

package vec

func filterSteps(leaves *filterLeaf, nleaves, base, n int, out *byte) {
	panic("vec: Filter needs HasAVX2")
}
