//go:build !purego

package vec

import "unsafe"

// selFromMask is SelFromCmpAdaptive's loop over n lanes of cmp, a multiple of
// 32. It returns the lanes kept, which lead sel.
//
//go:noescape
func selFromMask(cmp *byte, n int, sel *int32) (k int)

// gatherSel is the loop of GatherSel (form the width's log2) and GatherPos
// (formPos) over n lanes of sel, a multiple of 8; lim is the last index of
// vals and slim of src, which is nil for the one-level form. It returns the
// largest index into vals and the largest lane of sel, both as unsigned.
//
//go:noescape
func gatherSel(vals unsafe.Pointer, lim uint32, src *int32, slim uint32, sel *int32, n int, out unsafe.Pointer, form int) (top, topSel uint32)
