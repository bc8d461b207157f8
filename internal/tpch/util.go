package tpch

import "github.com/reprolab/swole/internal/bitmap"

// newOrderBitmap returns a positional bitmap sized to a table; a tiny
// wrapper so query kernels read naturally.
func newOrderBitmap(n int) *bitmap.Bitmap { return bitmap.New(n) }

func b2i(b bool) byte {
	var v byte
	if b {
		v = 1
	}
	return v
}
