package vec

import (
	"fmt"
	"strings"
	"testing"
)

// TestGatherOutOfRange: GatherSel, in both forms, and GatherPos read no lane
// outside the slices they are given — the column, the foreign-key index, src
// and sel each lie against inaccessible pages on both sides, so an
// int8 or int16 column at the end of its page starts off its dword alignment
// and its last row is the page's last byte — and an index past a slice, or
// below it, panics with an index error, whether its lane falls in the
// kernel's steps or in the Go loop after them. On a build without the kernel
// the Go loops run over the same pages.
func TestGatherOutOfRange(t *testing.T) {
	testGatherOutOfRange[int8](t)
	testGatherOutOfRange[int16](t)
	testGatherOutOfRange[int32](t)
	testGatherOutOfRange[int64](t)
}

func testGatherOutOfRange[T Number](t *testing.T) {
	const rows, lanes = 41, 40
	bads := []int32{rows, rows + 7, 1 << 20, 1<<31 - 1, -1, -1 << 31}
	fks := pairOf(guarded[int32](t, rows))
	for vi, vals := range pairOf(guarded[T](t, rows)) {
		for i := range vals {
			vals[i] = T(i*37 - 50)
		}
		fk := fks[vi]
		for i := range fk {
			fk[i] = int32(rows - 1 - i)
		}
		for si, src := range pairOf(guarded[int32](t, lanes)) {
			for li, whole := range pairOf(guarded[int32](t, lanes)) {
				for _, n := range []int{lanes, lanes - 3} {
					sel := whole[:n]
					if li == 1 {
						sel = whole[lanes-n:]
					}
					name := fmt.Sprintf("%T: vals %d, src %d, sel %d, %d lanes", vals, vi, si, li, n)
					reset := func() {
						for j := range src {
							src[j] = int32((j*7 + rows - 1) % rows) // lane 0 reads the last row
						}
						for j := range sel {
							sel[j] = int32(j) // below rows: the root form reads it too
						}
					}
					reset()
					out, ord := make([]int64, n), make([]int32, n)
					GatherSel(vals, nil, sel, out)
					for j, l := range sel {
						if out[j] != int64(vals[l]) {
							t.Fatalf("%s: root lane %d is %d, want %d", name, j, out[j], vals[l])
						}
					}
					GatherSel(vals, src, sel, out)
					GatherPos(fk, src, sel, ord)
					for j, l := range sel {
						if out[j] != int64(vals[src[l]]) || ord[j] != fk[src[l]] {
							t.Fatalf("%s: edge lane %d is %d and chases to %d, want %d and %d", name, j, out[j], ord[j], vals[src[l]], fk[src[l]])
						}
					}
					for _, bad := range bads {
						for _, lane := range []int{0, 7, 8, n - 1} {
							reset()
							at := fmt.Sprintf("%s, %d at lane %d", name, bad, lane)
							sel[lane] = bad // past src too: rows > lanes
							wantIndexPanic(t, "root sel: "+at, func() { GatherSel(vals, nil, sel, out) })
							wantIndexPanic(t, "edge sel: "+at, func() { GatherSel(vals, src, sel, out) })
							wantIndexPanic(t, "ordered sel: "+at, func() { GatherPos(fk, src, sel, ord) })
							reset()
							src[sel[lane]] = bad
							wantIndexPanic(t, "edge src: "+at, func() { GatherSel(vals, src, sel, out) })
							wantIndexPanic(t, "ordered src: "+at, func() { GatherPos(fk, src, sel, ord) })
						}
					}
				}
			}
		}
	}
}

func wantIndexPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "index out of range") {
			t.Errorf("%s: recovered %v, want an index out of range panic", what, r)
		}
	}()
	f()
}
