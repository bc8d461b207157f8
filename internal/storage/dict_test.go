package storage

import (
	"slices"
	"testing"
)

// FuzzBuildDict holds BuildDict, Code and CodeBytes to a map-and-sort
// reference. The fuzzer's bytes are split into short strings (each chunk's
// first byte sets its length), so inputs hold duplicates, empty strings,
// NUL and invalid UTF-8.
func FuzzBuildDict(f *testing.F) {
	for _, seed := range []string{
		"",
		"\x01a\x01b\x01a",
		"\x00\x00\x03abc\x02ab\x03abd",
		"\x02\x00\x00\x01\x00\x02\xff\xfe\x01\xff",
		"\x05apple\x06banana\x05apple\x04pear\x00",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var vals []string
		for len(b) > 0 {
			n := min(int(b[0])%16, len(b)-1)
			vals = append(vals, string(b[1:1+n]))
			b = b[1+n:]
		}
		seen := map[string]bool{}
		var want []string
		for _, v := range vals {
			if !seen[v] {
				seen[v] = true
				want = append(want, v)
			}
		}
		slices.Sort(want)

		d, codes := BuildDict(vals)
		if d.Len() != len(want) || len(codes) != len(vals) {
			t.Fatalf("%d values, %d codes; want %d and %d", d.Len(), len(codes), len(want), len(vals))
		}
		for i, v := range want {
			if d.Value(i) != v {
				t.Fatalf("Value(%d) = %q, want %q", i, d.Value(i), v)
			}
		}
		for i, v := range vals {
			if code, _ := slices.BinarySearch(want, v); int(codes[i]) != code {
				t.Fatalf("%q coded %d, want %d", v, codes[i], code)
			}
		}
		// Every present string, and strings next to each in order, which
		// are present exactly when the reference holds them.
		probe := func(s string) {
			code, present := slices.BinarySearch(want, s)
			c, ok := d.Code(s)
			cb, okb := d.CodeBytes([]byte(s))
			if ok != present || okb != present || (present && (c != int64(code) || cb != int64(code))) {
				t.Fatalf("%q: Code %d,%v CodeBytes %d,%v; want %d,%v", s, c, ok, cb, okb, code, present)
			}
		}
		probe("")
		probe("\xff\xff")
		for _, v := range want {
			probe(v)
			probe(v + "\x00")
			probe(v + "\xff")
			if n := len(v); n > 0 {
				probe(v[:n-1])
				probe(v[:n-1] + string([]byte{v[n-1] + 1}))
			}
		}
	})
}
