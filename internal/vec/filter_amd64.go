//go:build !purego

package vec

// filterSteps is the Filter kernel over the n >= 32 lanes from row base of
// the nleaves leaves' columns: whole 32-lane steps, then, when n is not a
// multiple of 32, one step over the last 32 lanes.
//
//go:noescape
func filterSteps(leaves *filterLeaf, nleaves, base, n int, out *byte)
