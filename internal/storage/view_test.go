package storage

import "testing"

func TestTableSlice(t *testing.T) {
	vals := []int64{10, 20, 30, 40, 50}
	big := make([]int64, 5)
	for i := range big {
		big[i] = int64(i) << 40 // force KindInt64
	}
	tab := MustNewTable("t",
		Compress("a", vals, LogInt), // int8
		Compress("w", big, LogInt),  // int64
		NewStrings("s", []string{"x", "y", "z", "x", "y"}),
	)
	sl, err := tab.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Name != "t" || sl.Rows() != 3 {
		t.Fatalf("slice name=%s rows=%d", sl.Name, sl.Rows())
	}
	for i := 0; i < 3; i++ {
		if got, want := sl.Column("a").Get(i), vals[i+1]; got != want {
			t.Fatalf("a[%d] = %d, want %d", i, got, want)
		}
		if got, want := sl.Column("w").Get(i), big[i+1]; got != want {
			t.Fatalf("w[%d] = %d, want %d", i, got, want)
		}
	}
	if got := sl.Column("s").GetString(2); got != "x" {
		t.Fatalf("s[2] = %q, want x (shared dict)", got)
	}
	if sl.Column("s").Dict != tab.Column("s").Dict {
		t.Fatal("sliced string column must share the dictionary")
	}
	if _, err := tab.Slice(2, 9); err == nil {
		t.Fatal("out-of-range slice must error")
	}
	if _, err := tab.Slice(-1, 2); err == nil {
		t.Fatal("negative slice must error")
	}
}
