package storage

import (
	"fmt"
	"slices"
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
			if rows, miss := l.parentRows(nil, pk, 0); miss >= 0 || !slices.Equal(rows, []int32{0, 1, 2, 3, 4}[:len(tc.keys)]) {
				t.Errorf("parentRows of the keys = %v, missing %d", rows, miss)
			}
			for _, k := range tc.missing {
				if rows, miss := l.parentRows(nil, Compress("fk", []int64{tc.keys[0], k}, LogInt), 0); miss != 1 {
					t.Errorf("key %d: parentRows = %v, missing %d; want missing 1", k, rows, miss)
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

// TestFKIndexWidths runs the index's lookup loop at every stored foreign-key
// width, over both locator forms, for a build and for an extension, and
// pins the error text of a key no parent row holds.
func TestFKIndexWidths(t *testing.T) {
	for _, form := range []struct {
		name          string
		parent, child []int64
		absent        int64
		compact       bool
	}{
		{"compact", []int64{-3, 5, 0, 2, 1, -1}, []int64{5, -3, 5, 0, 2, 1, -3, -1}, 3, true},
		{"map", []int64{-100, 7, 1 << 40, 0, 100}, []int64{7, -100, 100, 0, 7, 7, -100}, 1, false},
	} {
		parent := MustNewTable("p", Compress("pk", form.parent, LogInt))
		if l, _ := locatePK(parent.Column("pk"), "p.pk"); (l.at != nil) != form.compact {
			t.Fatalf("%s: compact form %v", form.name, l.at != nil)
		}
		want := make([]int32, len(form.child))
		for i, k := range form.child {
			want[i] = int32(slices.Index(form.parent, k))
		}
		for _, kind := range []Kind{KindInt8, KindInt16, KindInt32, KindInt64} {
			name := form.name + "/" + kind.String()
			child := MustNewTable("c", build("fk", kind, LogInt, form.child))
			idx, err := BuildFKIndex(child, "fk", parent, "pk")
			if err != nil || !slices.Equal(idx.Pos, want) {
				t.Errorf("%s: build %v, %v; want %v", name, idx, err, want)
			}
			head := &FKIndex{Child: "c", FK: "fk", Parent: "p", PK: "pk", Pos: slices.Clone(want[:3])}
			ext, err := ExtendFKIndex(head, child, parent)
			if err != nil || !slices.Equal(ext.Pos, want) {
				t.Errorf("%s: extend %v, %v; want %v", name, ext, err, want)
			}

			dangling := MustNewTable("c", build("fk", kind, LogInt, append(slices.Clone(form.child[:4]), form.absent, form.child[0])))
			_, err = BuildFKIndex(dangling, "fk", parent, "pk")
			if msg := fmt.Sprintf("storage: referential integrity violation: c.fk[4]=%d has no match in p.pk", form.absent); err == nil || err.Error() != msg {
				t.Errorf("%s: build over a missing key: %v; want %q", name, err, msg)
			}
			_, err = ExtendFKIndex(head, dangling, parent)
			if msg := fmt.Sprintf("storage: referential integrity violation: appended c.fk[4]=%d has no match in p.pk", form.absent); err == nil || err.Error() != msg {
				t.Errorf("%s: extend over a missing key: %v; want %q", name, err, msg)
			}
		}
	}
}

// FuzzFKIndex holds BuildFKIndex and ExtendFKIndex to a map from each parent
// key to its row. The first byte picks a step between keys and an offset,
// so the columns take every stored width, a unit step also at each width
// with the locator's compact form; the second counts the parent keys, and the third splits the
// child rows into those an index already covers and those an extension
// adds. A child byte below 128 names a parent key, so most inputs index
// cleanly; one at or above it is a key that may be missing. Repeated parent
// keys must be refused.
func FuzzFKIndex(f *testing.F) {
	for _, seed := range []string{
		"\x00\x08\x02\x01\x02\x03\x04\x05\x06\x07\x08\x00\x01\x07\x03",
		"\x01\x03\x01\x10\x20\x30\x00\x01\x02\xff",
		"\x03\x04\x00\x3f\x00\x20\x1f\x00\x01\x02\x03\x90",
		"\x04\x02\x05\x01\x01\x00",
	} {
		f.Add([]byte(seed))
	}
	scales := [][2]int64{{1, 0}, {1, 1000}, {1, 1 << 20}, {1, 1 << 40}, {5, 0}, {1 << 10, 0}, {1 << 26, 0}, {1 << 40, 0}}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		scale, np, split, b := scales[int(b[0])%len(scales)], int(b[1])%48, int(b[2]), b[3:]
		key := func(c byte) int64 { return (int64(c%64)-32)*scale[0] + scale[1] }
		np = min(np, len(b))
		pkeys := make([]int64, np)
		rowOf, dup := map[int64]int32{}, false
		for i, c := range b[:np] {
			pkeys[i] = key(c)
			if _, ok := rowOf[pkeys[i]]; ok {
				dup = true
			} else {
				rowOf[pkeys[i]] = int32(i)
			}
		}
		var fkeys []int64
		for _, c := range b[np:] {
			if c < 128 && np > 0 {
				fkeys = append(fkeys, pkeys[int(c)%np])
			} else {
				fkeys = append(fkeys, key(c))
			}
		}
		split %= len(fkeys) + 1

		var want []int32
		missing := -1
		for i, k := range fkeys {
			r, ok := rowOf[k]
			if !ok && missing < 0 && i >= split {
				missing = i
			}
			want = append(want, r)
		}
		firstMissing := slices.IndexFunc(fkeys, func(k int64) bool { _, ok := rowOf[k]; return !ok })

		parent := MustNewTable("p", Compress("pk", pkeys, LogInt))
		child := MustNewTable("c", Compress("fk", fkeys, LogInt))
		idx, err := BuildFKIndex(child, "fk", parent, "pk")
		head := &FKIndex{Child: "c", FK: "fk", Parent: "p", PK: "pk", Pos: slices.Clone(want[:split])}
		ext, extErr := ExtendFKIndex(head, child, parent)
		switch {
		case dup:
			if err == nil || extErr == nil || !strings.Contains(err.Error(), "duplicate primary key") || !strings.Contains(extErr.Error(), "duplicate primary key") {
				t.Fatalf("repeated parent key: build %v, extend %v", err, extErr)
			}
			return
		case firstMissing >= 0:
			if msg := fmt.Sprintf("c.fk[%d]=%d has no match", firstMissing, fkeys[firstMissing]); err == nil || !strings.Contains(err.Error(), msg) {
				t.Fatalf("build: %v; want %q", err, msg)
			}
		case err != nil || !slices.Equal(idx.Pos, want):
			t.Fatalf("build: %v, %v; want %v", idx, err, want)
		}
		if missing >= 0 {
			if msg := fmt.Sprintf("appended c.fk[%d]=%d has no match", missing, fkeys[missing]); extErr == nil || !strings.Contains(extErr.Error(), msg) {
				t.Fatalf("extend: %v; want %q", extErr, msg)
			}
		} else if extErr != nil || !slices.Equal(ext.Pos, want) {
			t.Fatalf("extend from row %d: %v, %v; want %v", split, ext, extErr, want)
		}
	})
}
