package storage

import (
	"slices"
	"testing"
)

// FuzzBuildDict holds BuildDict, NewDict, Code and CodeBytes to a
// map-and-sort reference. The fuzzer's bytes are split into short strings (each chunk's
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
		// NewDict takes BuildDict's ascending values as they are, and
		// builds the same dictionary from the raw list.
		if nd := NewDict(d.values); !slices.Equal(nd.values, d.values) {
			t.Fatalf("NewDict over BuildDict's values = %q, want %q", nd.values, d.values)
		}
		if nd := NewDict(vals); !slices.Equal(nd.values, d.values) {
			t.Fatalf("NewDict(%q) = %q, want %q", vals, nd.values, d.values)
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

// TestNewDict checks both ways into NewDict: a strictly ascending vocabulary
// is kept as it is (the dictionary holds the caller's slice, so nothing
// sorted a copy), and any other input (out of order, or holding a value
// twice) is sorted and deduplicated without touching the caller's slice.
func TestNewDict(t *testing.T) {
	for _, vocab := range [][]string{{"a"}, {"", "a", "ab", "b", "ba"}, {"BOX", "CASE", "box"}} {
		d := NewDict(vocab)
		if !slices.Equal(d.values, vocab) || &d.values[0] != &vocab[0] {
			t.Errorf("NewDict(%q) = %q, not the vocabulary itself", vocab, d.values)
		}
	}
	if d := NewDict(nil); d.Len() != 0 {
		t.Errorf("NewDict(nil) holds %d values", d.Len())
	}
	for _, tc := range []struct{ vocab, want []string }{
		{[]string{"b", "a"}, []string{"a", "b"}},
		{[]string{"a", "a"}, []string{"a"}},
		{[]string{"a", "b", "b", "c"}, []string{"a", "b", "c"}},
		{[]string{"pear", "apple", "pear", "banana"}, []string{"apple", "banana", "pear"}},
		{[]string{"box", "BOX", "CASE"}, []string{"BOX", "CASE", "box"}},
	} {
		in := slices.Clone(tc.vocab)
		if d := NewDict(in); !slices.Equal(d.values, tc.want) || !slices.Equal(in, tc.vocab) {
			t.Errorf("NewDict(%q) = %q, want %q (input now %q)", tc.vocab, d.values, tc.want, in)
		}
	}
}
