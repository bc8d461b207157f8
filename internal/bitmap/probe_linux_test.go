package bitmap

import (
	"fmt"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps a page between two inaccessible ones and returns an n-word
// slice at its start and one at its end: a read just outside either faults.
func guarded[T any](t *testing.T, n int) (head, tail []T) {
	t.Helper()
	page := syscall.Getpagesize()
	m, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(m) })
	if err := syscall.Mprotect(m[:page], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(m[2*page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	size := int(unsafe.Sizeof(*new(T)))
	head = unsafe.Slice((*T)(unsafe.Pointer(&m[page])), n)
	tail = unsafe.Slice((*T)(unsafe.Pointer(&m[2*page-n*size])), n)
	return head, tail
}

// TestProbeOutOfRange: a negative position, one at or past 64·len(words),
// and a lane of sel at or past len(pos) each panic with an index error,
// whether the lane falls in the kernel's steps or in the Go loop after them,
// and neither probe reads a word outside words or pos: both lie against
// inaccessible pages.
func TestProbeOutOfRange(t *testing.T) {
	const words, lanes = 4, 40
	for wi, w := range pair(guarded[uint64](t, words)) {
		b := &Bitmap{words: w, n: 64*words - 3}
		for i := range w {
			w[i] = 0x5555_5555_5555_5555
		}
		for pi, pos := range pair(guarded[int32](t, lanes)) {
			for _, bad := range []int32{-1, -1 << 31, 64 * words, 1<<31 - 1} {
				for _, lane := range []int{0, 5, 31, lanes - 1} {
					for j := range pos {
						pos[j] = int32(j * 5)
					}
					pos[lane] = bad
					name := fmt.Sprintf("words %d, pos %d, position %d at lane %d", wi, pi, bad, lane)
					cmp := make([]byte, lanes)
					wantIndexPanic(t, "AndGather: "+name, func() { b.AndGather(pos, cmp) })
					sel := []int32{0, 2, 3, 5, 7, 9, 11, 13, 17, 31, 32, int32(lane)}
					wantIndexPanic(t, "SelectGather: "+name, func() { b.SelectGather(pos, sel) })
				}
			}
			for j := range pos {
				pos[j] = int32(j)
			}
			for _, bad := range []int32{lanes, lanes + 7, 1 << 20, -1, -1 << 31} {
				for _, lane := range []int{0, 7, 11} {
					sel := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
					sel[lane] = bad
					wantIndexPanic(t, fmt.Sprintf("SelectGather: words %d, pos %d, lane %d of sel at %d", wi, pi, bad, lane), func() { b.SelectGather(pos, sel) })
				}
			}
		}
	}
}

func pair[T any](a, b T) [2]T { return [2]T{a, b} }

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
