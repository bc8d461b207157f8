//go:build !amd64 || purego

package vec

import "unsafe"

func selFromMask(cmp *byte, n int, sel *int32) (k int) {
	panic("vec: SelFromCmpAdaptive's kernel needs HasAVX2")
}

func gatherSel(vals unsafe.Pointer, lim uint32, src *int32, slim uint32, sel *int32, n int, out unsafe.Pointer, form int) (top, topSel uint32) {
	panic("vec: GatherSel needs HasAVX2")
}
