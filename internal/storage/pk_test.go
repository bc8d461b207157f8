package storage

import (
	"strings"
	"testing"
)

// TestPKLocatorForms checks both forms of the primary-key locator — the
// positional array over a compact key range and the map over a sparse one —
// on every path that builds it: rows found, keys missing below, inside and
// above the range, and a repeated key refused by the index build, its
// extension and the uniqueness check alike.
func TestPKLocatorForms(t *testing.T) {
	for _, tc := range []struct {
		name    string
		keys    []int64
		missing []int64
		compact bool
	}{
		{"compact", []int64{-3, 5, 0, 2, 1}, []int64{-4, -1, 3, 6, 1 << 40}, true},
		{"sparse", []int64{7, -1 << 40, 1 << 50, 0}, []int64{1, -1, 1 << 49, 1<<50 + 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pk := Compress("pk", tc.keys, LogInt)
			l, err := locatePK(pk, "p.pk")
			if err != nil {
				t.Fatal(err)
			}
			if got := l.at != nil; got != tc.compact {
				t.Fatalf("compact form %v, want %v", got, tc.compact)
			}
			for i, k := range tc.keys {
				if r, ok := l.row(k); !ok || r != int32(i) {
					t.Errorf("row(%d) = %d, %v; want %d", k, r, ok, i)
				}
			}
			for _, k := range tc.missing {
				if r, ok := l.row(k); ok {
					t.Errorf("row(%d) = %d for a missing key", k, r)
				}
			}

			parent := MustNewTable("p", pk)
			child := MustNewTable("c", Compress("fk", []int64{tc.keys[2], tc.keys[0]}, LogInt))
			idx, err := BuildFKIndex(child, "fk", parent, "pk")
			if err != nil || idx.Pos[0] != 2 || idx.Pos[1] != 0 {
				t.Fatalf("BuildFKIndex: %v, %v", idx, err)
			}
			dangling := MustNewTable("c", Compress("fk", []int64{tc.keys[2], tc.keys[0], tc.missing[1]}, LogInt))
			if _, err := ExtendFKIndex(idx, dangling, parent); err == nil || !strings.Contains(err.Error(), "referential integrity") {
				t.Errorf("ExtendFKIndex with a missing key: %v", err)
			}
			if _, err := BuildFKIndex(dangling, "fk", parent, "pk"); err == nil || !strings.Contains(err.Error(), "referential integrity") {
				t.Errorf("BuildFKIndex with a missing key: %v", err)
			}

			dup := Compress("pk", append(append([]int64(nil), tc.keys...), tc.keys[3]), LogInt)
			if err := ValidateUniqueKey(dup); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
				t.Errorf("ValidateUniqueKey with a repeated key: %v", err)
			}
			if _, err := ExtendFKIndex(idx, child, MustNewTable("p", dup)); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
				t.Errorf("ExtendFKIndex over a repeated key: %v", err)
			}
			if _, err := BuildFKIndex(child, "fk", MustNewTable("p", dup), "pk"); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
				t.Errorf("BuildFKIndex over a repeated key: %v", err)
			}
		})
	}
}
