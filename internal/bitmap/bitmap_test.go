package bitmap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSetTestBasics(t *testing.T) {
	b := New(200)
	if b.Len() != 200 {
		t.Fatalf("Len=%d", b.Len())
	}
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	for i := 0; i < 200; i++ {
		want := i%3 == 0
		if b.Test(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, b.Test(i), want)
		}
		var wantBit byte
		if want {
			wantBit = 1
		}
		if b.TestBit(i) != wantBit {
			t.Fatalf("TestBit(%d)=%d", i, b.TestBit(i))
		}
	}
	if b.Count() != 67 {
		t.Errorf("Count=%d, want 67", b.Count())
	}
}

func TestSetToOverwrites(t *testing.T) {
	b := New(64)
	b.SetTo(5, 1)
	if !b.Test(5) {
		t.Fatal("SetTo(5,1) did not set")
	}
	b.SetTo(5, 0)
	if b.Test(5) {
		t.Fatal("SetTo(5,0) did not clear")
	}
	// Predicated rewrite of the whole word must leave neighbours alone.
	b.Set(6)
	b.SetTo(5, 1)
	if !b.Test(6) {
		t.Fatal("SetTo clobbered neighbour bit")
	}
}

func TestSetFromCmpMatchesSetFromSel(t *testing.T) {
	// Property: the unconditional predicated store builds the bitmap that
	// Section III-D's other construction, a selection-vector driven loop of
	// Set calls, does.
	f := func(raw []byte, baseRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		base := int(baseRaw) // exercise unaligned bases
		cmp := make([]byte, len(raw))
		sel := make([]int32, len(raw))
		n := 0
		for i, v := range raw {
			cmp[i] = v & 1
			if cmp[i] == 1 {
				sel[n] = int32(i)
				n++
			}
		}
		a := New(base + len(raw))
		a.SetFromCmp(base, cmp)
		b := New(base + len(raw))
		for _, j := range sel[:n] {
			b.Set(base + int(j))
		}
		for i := 0; i < a.Len(); i++ {
			if a.Test(i) != b.Test(i) {
				return false
			}
		}
		return a.Count() == b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetFromCmpOverwritesStaleBits(t *testing.T) {
	b := New(8)
	b.Set(0)
	b.Set(1)
	b.SetFromCmp(0, []byte{0, 1, 0, 0})
	if b.Test(0) || !b.Test(1) {
		t.Error("SetFromCmp must store 0 lanes too (predicated store)")
	}
}

func TestAndOrClear(t *testing.T) {
	a := New(128)
	b := New(128)
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(101)

	u := New(128)
	u.Or(a)
	u.Or(b)
	if u.Count() != 3 || !u.Test(1) || !u.Test(100) || !u.Test(101) {
		t.Errorf("Or: count=%d", u.Count())
	}
	a.And(b)
	if a.Count() != 1 || !a.Test(100) {
		t.Errorf("And: count=%d", a.Count())
	}
	a.Clear()
	if a.Count() != 0 {
		t.Error("Clear left bits set")
	}
}

func TestBytes(t *testing.T) {
	// Paper claim: 100M positions need ~12.5 MB.
	b := New(100_000_000)
	if mb := float64(b.Bytes()) / (1 << 20); mb < 11.5 || mb > 13.5 {
		t.Errorf("100M-position bitmap is %.1f MB, paper says ~12.5", mb)
	}
}

func TestMergeOr(t *testing.T) {
	// Three "workers" set disjoint morsel-aligned ranges; the merge must
	// equal a sequential construction.
	const n = 3*128 + 17
	want := New(n)
	parts := make([]*Bitmap, 3)
	for w := range parts {
		parts[w] = New(n)
	}
	for i := 0; i < n; i++ {
		if i%3 == 0 || i%7 == 0 {
			want.Set(i)
			parts[(i/128)%3].Set(i)
		}
	}
	got := MergeOr(parts...)
	if got.Len() != n {
		t.Fatalf("merged length %d, want %d", got.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got.Test(i) != want.Test(i) {
			t.Fatalf("bit %d: merged %v, sequential %v", i, got.Test(i), want.Test(i))
		}
	}
	// Single partial merges to an identical copy.
	solo := MergeOr(want)
	if solo.Count() != want.Count() {
		t.Errorf("single-part merge count %d, want %d", solo.Count(), want.Count())
	}
}

func TestReset(t *testing.T) {
	b := New(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	b.Reset(200)
	if b.Len() != 200 || b.Count() != 0 {
		t.Fatalf("Reset(200): len=%d count=%d", b.Len(), b.Count())
	}
	// Shrink: stale high bits must not reappear when re-growing within
	// the retained capacity.
	b.Set(199)
	b.Reset(64)
	if b.Len() != 64 || b.Count() != 0 {
		t.Fatalf("Reset(64): len=%d count=%d", b.Len(), b.Count())
	}
	b.Reset(200)
	if b.Count() != 0 {
		t.Errorf("stale bit visible after shrink+regrow: count=%d", b.Count())
	}
	if b.Test(199) {
		t.Error("bit 199 survived Reset cycles")
	}
	// Growing past capacity reallocates and still reads clear.
	b.Reset(10_000)
	if b.Len() != 10_000 || b.Count() != 0 {
		t.Fatalf("Reset(10000): len=%d count=%d", b.Len(), b.Count())
	}
	allocs := testing.AllocsPerRun(100, func() { b.Reset(10_000) })
	if allocs != 0 {
		t.Errorf("same-size Reset allocated %.1f times per run, want 0", allocs)
	}
}

// AndGather and SelectGather against TestBit, lane by lane.
func TestAndGatherMatchesTestBit(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const rows = 5000
	b := New(rows)
	for i := 0; i < rows; i++ {
		if r.Intn(3) == 0 {
			b.Set(i)
		}
	}
	for _, n := range []int{0, 1, 1023, 1024} {
		pos := make([]int32, n)
		cmp := make([]byte, n)
		var sel, want []int32
		for j := range pos {
			pos[j] = int32(r.Intn(rows))
			cmp[j] = byte(r.Intn(2))
			if r.Intn(2) == 0 {
				sel = append(sel, int32(j))
				if b.Test(int(pos[j])) {
					want = append(want, int32(j))
				}
			}
		}
		all := append([]byte(nil), cmp...)
		b.AndGather(pos, all)
		for j := range pos {
			if want := cmp[j] & b.TestBit(int(pos[j])); all[j] != want {
				t.Fatalf("n=%d AndGather lane %d: %d, want %d", n, j, all[j], want)
			}
		}
		if k := b.SelectGather(pos, sel); !slices.Equal(sel[:k], want) {
			t.Fatalf("n=%d SelectGather kept %v, want %v", n, sel[:k], want)
		}
	}
}
