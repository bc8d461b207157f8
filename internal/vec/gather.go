package vec

import (
	"math/bits"
	"unsafe"
)

// Gathers by selection, the hybrid technique's front half: the selected lanes
// of a tile read straight from a column at its stored width into the tile's
// int64 vector — out[j] = vals[sel[j]], or vals[src[sel[j]]] through a join
// edge's lane-indexed parent positions src — and the chase of a chained edge,
// its parent positions from its source edge's: in the selection's order,
// out[j] = fk[src[sel[j]]], or lane-indexed, pos[l] = fk[src[l]] for each
// lane l of sel. In AVX2 (gather_amd64.s) a step of eight lanes gathers src
// with VPGATHERDD, then the values: int32 with VPGATHERDD, int64 with two
// VPGATHERDQ, and int8 and int16 as the aligned dword that holds the lane
// (which lies in the lane's page), shifted to the top and arithmetically
// back down. Every gather is masked to the lanes whose index lies in its
// slice, and the kernel returns the largest index it saw, so the wrapper
// fails an index outside the slice as the Go loop's index check does. The
// Go loops run the lanes after the kernel's whole steps, and every lane on
// a build without it (HasAVX2 false). The lane-indexed chase is a Go loop
// only: AVX2 has no scatter, and storing a step's eight lanes one by one
// measured no faster than it.

// formPos is GatherPos's kernel form; GatherSel's are the log2 of the value
// width.
const formPos = 4

// GatherSel writes out[j] = int64(vals[src[sel[j]]]) for each lane j of sel,
// or int64(vals[sel[j]]) when src is nil. out holds at least len(sel) lanes.
// A lane of sel outside src, or an index outside vals, panics.
func GatherSel[T Number](vals []T, src, sel []int32, out []int64) {
	out = out[:len(sel)]
	var z T
	i := gatherSteps(vals, src, sel, unsafe.Pointer(unsafe.SliceData(out)), bits.TrailingZeros(uint(unsafe.Sizeof(z))))
	gatherSelGo(vals, src, sel[i:], out[i:])
}

// gatherSelGo is GatherSel's Go loop.
func gatherSelGo[T Number](vals []T, src, sel []int32, out []int64) {
	out = out[:len(sel)]
	if src == nil {
		for j, l := range sel {
			out[j] = int64(vals[l])
		}
		return
	}
	for j, l := range sel {
		out[j] = int64(vals[src[l]])
	}
}

// GatherPos is GatherSel for positions: it writes out[j] = fk[src[sel[j]]],
// or fk[sel[j]] when src is nil, for each lane j of sel — a chained join
// edge's parent positions in the selection's order, from its foreign-key
// index fk and its source edge's positions. out holds at least len(sel) lanes.
func GatherPos(fk, src, sel, out []int32) {
	out = out[:len(sel)]
	i := gatherSteps(fk, src, sel, unsafe.Pointer(unsafe.SliceData(out)), formPos)
	gatherPosGo(fk, src, sel[i:], out[i:])
}

// gatherPosGo is GatherPos's Go loop.
func gatherPosGo(fk, src, sel, out []int32) {
	out = out[:len(sel)]
	if src == nil {
		for j, l := range sel {
			out[j] = fk[l]
		}
		return
	}
	for j, l := range sel {
		out[j] = fk[src[l]]
	}
}

// ChaseSel writes pos[l] = fk[src[l]] for each lane l of sel: a chained join
// edge's lane-indexed parent positions, from its source edge's positions src
// and its foreign-key index fk.
func ChaseSel(fk, src, sel, pos []int32) {
	for _, l := range sel {
		pos[l] = fk[src[l]]
	}
}

// gatherSteps runs the kernel in the given form over the whole steps of sel
// into out and returns the lanes it read: none on a build without it, for
// fewer than 8 lanes, or over an empty vals or src. A lane of sel outside
// src, or an index outside vals, panics.
func gatherSteps[T Number](vals []T, src, sel []int32, out unsafe.Pointer, form int) int {
	n := len(sel) &^ 7
	if !HasAVX2 || n == 0 || len(vals) == 0 || src != nil && len(src) == 0 {
		return 0
	}
	sp, slim := (*int32)(nil), uint32(0)
	if src != nil {
		sp, slim = &src[0], limit(len(src))
	}
	top, topSel := gatherSel(unsafe.Pointer(&vals[0]), limit(len(vals)), sp, slim, &sel[0], n, out, form)
	_ = vals[top]
	if src != nil {
		_ = src[topSel]
	}
	return n
}
