//go:build !amd64 || purego

package vec

func groupSlots(k0, k1 *int8, cmp *byte, n int, key *[4]int16, slots *byte) (bad bool) {
	panic("vec: GroupFold needs HasAVX2")
}

func groupSumI8(slots *byte, n int, a *int8, nslots int, cnt, sum *[GroupSlots]int64) {}

func groupSumI32(slots *byte, n int, a *int32, nslots int, cnt, sum *[GroupSlots]int64) {}

func groupSumI32W(slots *byte, n int, a *int32, nslots int, cnt, sum *[GroupSlots]int64) {}

func groupMinMaxI32(slots *byte, n int, a *int32, nslots int, cnt, mn, mx *[GroupSlots]int64) {}
