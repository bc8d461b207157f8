// Package vec provides the tile-oriented vector kernels shared by all code
// generation strategies in this repository.
//
// The kernels correspond to the inner loops of the generated code shown in
// the paper's Figures 1, 3, 4 and 5: predicate "prepass" evaluation into
// byte-valued comparison vectors, selection-vector construction (the
// predicated "no-branch" loop of Ross, PODS 2002, and an eight-lane form of
// it), masked aggregation (the value-masking technique of Section III-A), masked
// key materialization (key masking, Section III-B), and the sum over a
// predicate-times-value tile (access merging, Section III-C).
//
// All kernels operate on tiles of at most TileSize values, matching the
// paper's vector size of 1024. Comparison vectors hold exactly 0 or 1 per
// lane so that masking can be expressed as multiplication, which is how the
// generated code avoids control dependencies.
package vec

// TileSize is the number of tuples processed per tile. The paper uses a
// vector size of 1024, "as suggested by other recent studies".
const TileSize = 1024

// Number is the set of stored column widths: the storage layer produces
// int8/int16/int32/int64 physical columns (Section IV: null suppression and
// fixed-point storage), and every kernel generic over a width, in vec, ht and
// storage, takes its type from this set.
type Number interface{ int8 | int16 | int32 | int64 }

// b2i converts a bool to a byte without a visible branch. The Go compiler
// lowers this pattern to a flag-setting instruction on amd64/arm64.
func b2i(b bool) byte {
	var v byte
	if b {
		v = 1
	}
	return v
}

// Tiles invokes fn for every tile of a relation with n tuples. fn receives
// the tile's base offset and length; the final tile may be short. It is the
// outer loop of every tiled strategy in the paper's figures.
func Tiles(n int, fn func(base, length int)) {
	for i := 0; i < n; i += TileSize {
		length := n - i
		if length > TileSize {
			length = TileSize
		}
		fn(i, length)
	}
}
