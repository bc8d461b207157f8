//go:build !purego

package vec

// andBits is AndBits' loop over n lanes, a multiple of 32; lim is the last
// 32-bit word. It returns the largest position, as unsigned, of any lane.
//
//go:noescape
func andBits(words *uint64, lim uint32, pos *int32, cmp *byte, n int) (top uint32)

// selectBits is SelectBits' loop over n lanes of sel, a multiple of 8; lim
// is the last 32-bit word and plim the last lane of pos. It returns the lanes
// kept, the largest position and the largest lane of sel, both as unsigned.
//
//go:noescape
func selectBits(words *uint64, lim uint32, pos *int32, plim uint32, sel *int32, n int) (kept int, top, topSel uint32)
