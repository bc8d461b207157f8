package vec

import (
	"fmt"
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps a page between two inaccessible ones and returns an n-lane
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

// TestFilterOutOfRange: the filter kernel, its fold and the one-leaf compare
// (CmpRangeU) read no lane outside the rows they are given — the columns,
// the summed ones included, lie against inaccessible pages on both sides,
// and the rows run from the first lane or end at the last: under 32 lanes,
// at whole steps, and with a last step that overlaps the one before — and a
// filter asked for rows past its columns, or past a summed column, panics
// instead of reading them. On a build without the kernel the filter declines
// and the compares run their Go loops over the same pages.
func TestFilterOutOfRange(t *testing.T) {
	const rows = 1100
	for ai, a := range pairOf(guarded[int8](t, rows)) {
		for bi, b := range pairOf(guarded[int16](t, rows)) {
			for i := range a {
				a[i], b[i] = int8(i*7), int16(i*263)
			}
			// (a < 5 OR b >= 1000) AND NOT (a BETWEEN -3 AND 70)
			var f Filter
			f.Add(FilterLeaf{I8: a, Lo: -128, Hi: 4})
			f.Add(FilterLeaf{I16: b, Lo: 1000, Hi: 1 << 20})
			f.EndClause()
			f.Add(FilterLeaf{I8: a, Lo: -3, Hi: 70, Not: true})
			f.EndClause()
			pass := func(i int) byte { return b2i((a[i] < 5 || b[i] >= 1000) && (a[i] < -3 || a[i] > 70)) }
			for _, n := range []int{1, 7, 31, 32, 33, 40, 64, 95, 1024, rows} {
				for _, base := range []int{0, rows - n} {
					name := fmt.Sprintf("a %d, b %d, rows [%d, %d)", ai, bi, base, base+n)
					out := make([]byte, n)
					switch ok := f.Eval(base, n, out); {
					case ok:
						for i, v := range out {
							if v != pass(base+i) {
								t.Fatalf("%s: lane %d is %d, want %d", name, i, v, pass(base+i))
							}
						}
					case HasAVX2 && n >= 32:
						t.Fatalf("%s: the kernel declined", name)
					}
					var cnt, sum, sumSq int64
					for i := base; i < base+n; i++ {
						if pass(i) == 1 {
							cnt, sum, sumSq = cnt+1, sum+int64(a[i]), sumSq+int64(a[i])*int64(a[i])
						}
					}
					for _, fd := range []struct {
						a, b []int8
						sum  int64
					}{{nil, nil, 0}, {a, nil, sum}, {a, a, sumSq}} {
						c, s, ok := f.Fold(base, n, fd.a, fd.b)
						switch {
						case ok && (c != cnt || s != fd.sum):
							t.Fatalf("%s: fold a %t, b %t: count %d, sum %d; want %d, %d", name, fd.a != nil, fd.b != nil, c, s, cnt, fd.sum)
						case !ok && HasAVX2 && n >= 32:
							t.Fatalf("%s: the fold declined", name)
						}
					}
					x, y := a[base:base+n], b[base:base+n]
					checkRangeLanes(t, name+": a < 5", x, math.MinInt64, 4, false)
					checkRangeLanes(t, name+": NOT (a BETWEEN -3 AND 70)", x, -3, 70, true)
					checkRangeLanes(t, name+": a > 300", x, 301, math.MaxInt64, false)
					checkRangeLanes(t, name+": b >= 1000", y, 1000, math.MaxInt64, false)
					checkRangeLanes(t, name+": b BETWEEN -300 AND 9000", y, -300, 9000, false)
					checkRangeLanes(t, name+": NOT (b BETWEEN -40000 AND 5)", y, -40000, 5, true)
				}
			}
			if HasAVX2 {
				panics := func(what string, call func()) {
					defer func() {
						if recover() == nil {
							t.Errorf("a %d, b %d: %s did not panic", ai, bi, what)
						}
					}()
					call()
				}
				for _, r := range [][2]int{{rows - 31, 32}, {-1, 32}, {0, rows + 1}} {
					what := fmt.Sprintf("rows [%d, %d) past the columns", r[0], r[0]+r[1])
					panics(what, func() { f.Eval(r[0], r[1], make([]byte, r[1])) })
					panics("folding "+what, func() { f.Fold(r[0], r[1], a, nil) })
				}
				panics("folding past a", func() { f.Fold(0, rows, a[:rows-1], nil) })
				panics("folding past b", func() { f.Fold(rows-40, 40, a, a[:rows-1]) })
			}
		}
	}
}

func pairOf[T any](a, b T) [2]T { return [2]T{a, b} }

// checkRangeLanes holds CmpRangeU over vals to a lane-at-a-time test.
func checkRangeLanes[T Number](t *testing.T, name string, vals []T, lo, hi int64, not bool) {
	t.Helper()
	out := make([]byte, len(vals))
	CmpRangeU(vals, lo, hi, not, out)
	for i, v := range vals {
		if want := b2i((lo <= int64(v) && int64(v) <= hi) != not); out[i] != want {
			t.Fatalf("%s: lane %d is %d, want %d", name, i, out[i], want)
		}
	}
}
