package storage

import (
	"strings"
	"testing"
)

func TestColumnAppendSameWidth(t *testing.T) {
	c := Compress("a", []int64{1, 2, 3}, LogInt)
	if c.Kind != KindInt8 {
		t.Fatalf("Kind = %v, want int8", c.Kind)
	}
	out := c.Append([]int64{4, -5})
	if out.Kind != KindInt8 || out.Len() != 5 {
		t.Fatalf("out = %v len %d, want int8 len 5", out.Kind, out.Len())
	}
	for i, want := range []int64{1, 2, 3, 4, -5} {
		if got := out.Get(i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	// The receiver must be untouched.
	if c.Len() != 3 {
		t.Fatalf("receiver len = %d, want 3", c.Len())
	}
}

func TestColumnAppendWidens(t *testing.T) {
	c := Compress("a", []int64{1, 2, 3}, LogInt)
	out := c.Append([]int64{1 << 20})
	if out.Kind != KindInt32 || out.Len() != 4 {
		t.Fatalf("out = %v len %d, want int32 len 4", out.Kind, out.Len())
	}
	for i, want := range []int64{1, 2, 3, 1 << 20} {
		if got := out.Get(i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if c.Kind != KindInt8 || c.Len() != 3 || c.Get(2) != 3 {
		t.Fatalf("receiver mutated: %v len %d", c.Kind, c.Len())
	}
	// Never narrows, even if the delta would fit a narrower width.
	out2 := out.Append([]int64{7})
	if out2.Kind != KindInt32 {
		t.Fatalf("out2.Kind = %v, want int32", out2.Kind)
	}
}

func TestColumnAppendPreservesSlices(t *testing.T) {
	// A reader's view taken before an append must be unaffected by it,
	// including when append reuses the backing array's spare capacity.
	c := NewInt64("a", make([]int64, 3, 16), LogInt)
	c.I64[0], c.I64[1], c.I64[2] = 10, 20, 30
	view := c.Slice(1, 3)
	out := c.Append([]int64{40, 50})
	if out.Len() != 5 || out.Get(4) != 50 {
		t.Fatalf("append result wrong: len %d", out.Len())
	}
	if view.Len() != 2 || view.Get(0) != 20 || view.Get(1) != 30 {
		t.Fatalf("pre-append view changed: len %d", view.Len())
	}
	// The capped view must not alias the appended region.
	if cap(view.I64) != 2 {
		t.Fatalf("view cap = %d, want 2 (full slice expression)", cap(view.I64))
	}
}

func TestColumnAppendKeepsDict(t *testing.T) {
	c := NewStrings("s", []string{"a", "b", "a"})
	code, ok := c.Dict.Code("b")
	if !ok {
		t.Fatal("missing dict code")
	}
	out := c.Append([]int64{code})
	if out.Dict != c.Dict {
		t.Fatal("dict not carried over")
	}
	if out.GetString(3) != "b" {
		t.Fatalf("out[3] = %q, want b", out.GetString(3))
	}
}

func TestDictCodeBytes(t *testing.T) {
	d := NewDict([]string{"x", "y"})
	if c, ok := d.CodeBytes([]byte("y")); !ok || c != 1 {
		t.Fatalf("CodeBytes(y) = %d, %v", c, ok)
	}
	if _, ok := d.CodeBytes([]byte("z")); ok {
		t.Fatal("CodeBytes(z) should miss")
	}
}

// TestDictCodeBytesZeroAlloc: the ingestion kernels look up every string
// field of a CSV batch, so a hit and a miss must both stay off the heap,
// also for values longer than the compiler's small-string buffer.
func TestDictCodeBytesZeroAlloc(t *testing.T) {
	long := strings.Repeat("a long dictionary value, ", 4)
	d := NewDict([]string{"x", "y", long, long + "!"})
	hit, miss := []byte(long), []byte(long+"?")
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := d.CodeBytes(hit); !ok {
			t.Fatal("hit missed")
		}
		if _, ok := d.CodeBytes(miss); ok {
			t.Fatal("miss hit")
		}
	}); allocs != 0 {
		t.Fatalf("CodeBytes allocates %v per run, want 0", allocs)
	}
}

func TestExtendFKIndex(t *testing.T) {
	parent := MustNewTable("p", Compress("pk", []int64{0, 1, 2}, LogInt))
	child := MustNewTable("c", Compress("fk", []int64{2, 0}, LogInt))
	idx, err := BuildFKIndex(child, "fk", parent, "pk")
	if err != nil {
		t.Fatal(err)
	}
	grown := MustNewTable("c", Compress("fk", []int64{2, 0, 1, 1}, LogInt))
	ext, err := ExtendFKIndex(idx, grown, parent)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{2, 0, 1, 1}
	if len(ext.Pos) != len(want) {
		t.Fatalf("len = %d, want %d", len(ext.Pos), len(want))
	}
	for i, w := range want {
		if ext.Pos[i] != w {
			t.Fatalf("Pos[%d] = %d, want %d", i, ext.Pos[i], w)
		}
	}
	// Violations are detected before anything is returned.
	bad := MustNewTable("c", Compress("fk", []int64{2, 0, 99}, LogInt))
	if _, err := ExtendFKIndex(idx, bad, parent); err == nil {
		t.Fatal("want referential integrity error")
	}
}

func TestValidateUniqueKey(t *testing.T) {
	if err := ValidateUniqueKey(Compress("k", []int64{1, 2, 3}, LogInt)); err != nil {
		t.Fatal(err)
	}
	if err := ValidateUniqueKey(Compress("k", []int64{1, 2, 1}, LogInt)); err == nil {
		t.Fatal("want duplicate key error")
	}
}
