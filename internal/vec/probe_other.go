//go:build !amd64 || purego

package vec

func andBits(words *uint64, lim uint32, pos *int32, cmp *byte, n int) (top uint32) {
	panic("vec: AndBits needs HasAVX2")
}

func selectBits(words *uint64, lim uint32, pos *int32, plim uint32, sel *int32, n int) (kept int, top, topSel uint32) {
	panic("vec: SelectBits needs HasAVX2")
}
