//go:build !purego

package vec

// groupSlots is GroupFold's slot pass over n >= 32 lanes: whole 32-lane
// steps, then, when n is not a multiple of 32, one step over the last 32
// lanes whose slots it writes as the tail block, after the others, with the
// lanes the loop took marked as no slot. key holds m0, c, the last slot and a
// rejected lane's slot. It reports a lane whose slot is outside the domain.
//
//go:noescape
func groupSlots(k0, k1 *int8, cmp *byte, n int, key *[4]int16, slots *byte) (bad bool)

// groupSumI8, groupSumI32 and groupSumI32W fold the lanes of each slot below
// nslots into its count and its sum of a; groupMinMaxI32 into its count, min
// and max. They read the slot bytes groupSlots wrote for n lanes.
//
//go:noescape
func groupSumI8(slots *byte, n int, a *int8, nslots int, cnt, sum *[GroupSlots]int64)

//go:noescape
func groupSumI32(slots *byte, n int, a *int32, nslots int, cnt, sum *[GroupSlots]int64)

//go:noescape
func groupSumI32W(slots *byte, n int, a *int32, nslots int, cnt, sum *[GroupSlots]int64)

//go:noescape
func groupMinMaxI32(slots *byte, n int, a *int32, nslots int, cnt, mn, mx *[GroupSlots]int64)
