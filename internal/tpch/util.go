package tpch

import "github.com/reprolab/swole/internal/bitmap"

// newOrderBitmap returns a positional bitmap sized to a table; a tiny
// wrapper so query kernels read naturally.
func newOrderBitmap(n int) *bitmap.Bitmap { return bitmap.New(n) }
