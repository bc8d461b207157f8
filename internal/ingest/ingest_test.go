package ingest

import (
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/storage"
)

func microSchema() Schema {
	return Schema{
		{Name: "a", Kind: Int64},
		{Name: "p", Kind: Decimal},
		{Name: "d", Kind: Date},
		{Name: "s", Kind: Dict, Dict: storage.NewDict([]string{"red", "green", "blue"})},
	}
}

func TestKernelBasic(t *testing.T) {
	k, err := NewKernel(microSchema(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	csv := "1,2.50,2020-01-02,red\n-7,3,1999-12-31,blue\n"
	if err := k.Parse([]byte(csv)); err != nil {
		t.Fatal(err)
	}
	if k.Accepted() != 2 || k.Rejected() != 0 {
		t.Fatalf("accepted %d rejected %d", k.Accepted(), k.Rejected())
	}
	cols := k.Columns()
	if cols[0][0] != 1 || cols[0][1] != -7 {
		t.Fatalf("col a = %v", cols[0])
	}
	if cols[1][0] != 250 || cols[1][1] != 300 {
		t.Fatalf("col p = %v", cols[1])
	}
	if cols[2][0] != int64(storage.MustParseDate("2020-01-02")) {
		t.Fatalf("col d = %v", cols[2])
	}
	if cols[3][0] != 2 || cols[3][1] != 0 { // lexicographic codes: blue=0, green=1, red=2
		t.Fatalf("col s = %v", cols[3])
	}
}

func TestKernelQuotedFields(t *testing.T) {
	d := storage.NewDict([]string{`comma,value`, `quote"value`, "line\nvalue"})
	k, err := NewKernel(Schema{{Name: "n", Kind: Int64}, {Name: "s", Kind: Dict, Dict: d}}, Strict)
	if err != nil {
		t.Fatal(err)
	}
	csv := "1,\"comma,value\"\n\"2\",\"quote\"\"value\"\n3,\"line\nvalue\"\n"
	if err := k.Parse([]byte(csv)); err != nil {
		t.Fatal(err)
	}
	if k.Accepted() != 3 {
		t.Fatalf("accepted %d, errs %v", k.Accepted(), k.Errors())
	}
	want := []int64{0, 2, 1}
	for i, w := range want {
		if k.Columns()[1][i] != w {
			t.Fatalf("row %d code = %d, want %d", i, k.Columns()[1][i], w)
		}
	}
}

func TestKernelPolicies(t *testing.T) {
	csv := "1,1.00,2020-01-01,red\nbad,1.00,2020-01-01,red\n3,1.00,2020-01-01,red\n"

	k, _ := NewKernel(microSchema(), Skip)
	if err := k.Parse([]byte(csv)); err != nil {
		t.Fatal(err)
	}
	if k.Accepted() != 2 || k.Rejected() != 1 {
		t.Fatalf("skip: accepted %d rejected %d", k.Accepted(), k.Rejected())
	}
	if len(k.Errors()) != 1 || k.Errors()[0].Line != 2 {
		t.Fatalf("skip: errs %v", k.Errors())
	}
	if !strings.Contains(k.Errors()[0].Error(), "line 2") {
		t.Fatalf("error text %q lacks line attribution", k.Errors()[0].Error())
	}

	ks, _ := NewKernel(microSchema(), Strict)
	err := ks.Parse([]byte(csv))
	if err == nil {
		t.Fatal("strict: want error")
	}
	re, ok := err.(RowError)
	if !ok || re.Line != 2 {
		t.Fatalf("strict: err = %v", err)
	}
	// The kernel stays poisoned until Reset.
	if err2 := ks.Parse([]byte("5,1.00,2020-01-01,red\n")); err2 == nil {
		t.Fatal("strict: poisoned kernel accepted input")
	}
	ks.Reset()
	if err := ks.Parse([]byte("5,1.00,2020-01-01,red\n")); err != nil || ks.Accepted() != 1 {
		t.Fatalf("after reset: %v accepted %d", err, ks.Accepted())
	}
}

func TestKernelEmptyLinesAndCRLF(t *testing.T) {
	k, _ := NewKernel(microSchema(), Strict)
	csv := "\n1,1.00,2020-01-01,red\r\n\r\n\n2,2.00,2020-01-02,blue"
	if err := k.Parse([]byte(csv)); err != nil {
		t.Fatal(err)
	}
	if k.Accepted() != 2 {
		t.Fatalf("accepted %d, errs %v", k.Accepted(), k.Errors())
	}
}

func TestKernelFieldCountAndLineNumbers(t *testing.T) {
	k, _ := NewKernel(microSchema(), Skip)
	csv := "1,1.00,2020-01-01,red\n2,2.00\n3,3.00,2020-01-03,green,extra\n4,4.00,2020-01-04,blue\n"
	if err := k.Parse([]byte(csv)); err != nil {
		t.Fatal(err)
	}
	if k.Accepted() != 2 || k.Rejected() != 2 {
		t.Fatalf("accepted %d rejected %d", k.Accepted(), k.Rejected())
	}
	if k.Errors()[0].Line != 2 || k.Errors()[1].Line != 3 {
		t.Fatalf("errs %v", k.Errors())
	}
}

func TestKernelUnterminatedQuote(t *testing.T) {
	k, _ := NewKernel(microSchema(), Skip)
	if err := k.Parse([]byte("1,1.00,2020-01-01,\"red")); err != nil {
		t.Fatal(err)
	}
	if k.Accepted() != 0 || k.Rejected() != 1 {
		t.Fatalf("accepted %d rejected %d", k.Accepted(), k.Rejected())
	}
}

func TestDecoders(t *testing.T) {
	intCases := map[string]struct {
		v  int64
		ok bool
	}{
		"0": {0, true}, "42": {42, true}, "-7": {-7, true}, "+9": {9, true},
		"9223372036854775807": {1<<63 - 1, true}, "-9223372036854775808": {-1 << 63, true},
		"9223372036854775808": {0, false}, "-9223372036854775809": {0, false},
		"": {0, false}, "-": {0, false}, "1x": {0, false}, " 1": {0, false}, "1 ": {0, false},
	}
	for in, want := range intCases {
		v, ok := decodeInt([]byte(in))
		if ok != want.ok || (ok && v != want.v) {
			t.Errorf("decodeInt(%q) = %d,%v want %d,%v", in, v, ok, want.v, want.ok)
		}
	}
	decCases := map[string]struct {
		v  int64
		ok bool
	}{
		"1": {100, true}, "1.5": {150, true}, "1.25": {125, true}, "-0.01": {-1, true},
		"+2.00": {200, true}, "0.0": {0, true},
		"1.": {0, false}, ".5": {0, false}, "1.234": {0, false}, "1.2.3": {0, false}, "": {0, false},
	}
	for in, want := range decCases {
		v, ok := decodeDecimal([]byte(in))
		if ok != want.ok || (ok && v != want.v) {
			t.Errorf("decodeDecimal(%q) = %d,%v want %d,%v", in, v, ok, want.v, want.ok)
		}
	}
	if v, ok := decodeDate([]byte("2020-01-02")); !ok || v != int64(storage.MustParseDate("2020-01-02")) {
		t.Errorf("decodeDate(2020-01-02) = %d,%v", v, ok)
	}
	if v, ok := decodeDate([]byte("5-1-2")); !ok || v != int64(storage.MustParseDate("5-1-2")) {
		t.Errorf("decodeDate(5-1-2) = %d,%v", v, ok)
	}
	for _, bad := range []string{"", "2020", "2020-01", "2020-13-01", "2020-00-01", "2020-01-32", "2020-01-00", "2020-01-02-03", "2020-01-02x", "x2020-01-02", "2020--01", "-2020-01-02"} {
		if _, ok := decodeDate([]byte(bad)); ok {
			t.Errorf("decodeDate(%q) accepted", bad)
		}
	}
}

// TestDecodeDateIsParseDate: a CSV date field parses under
// storage.ParseDate's grammar, so ingest and SQL date literals accept the
// same dates; a trailing separator is not part of a date.
func TestDecodeDateIsParseDate(t *testing.T) {
	for _, in := range []string{"2020-06-15", "2020-6-5", "2020-02-31", "2020-06-15-", "2020-06-15x", " 2020-06-15", "-5-06-15"} {
		v, ok := decodeDate([]byte(in))
		d, err := storage.ParseDate(in)
		if ok != (err == nil) || ok && v != int64(d) {
			t.Errorf("%q: decodeDate %d,%v but ParseDate %d,%v", in, v, ok, d, err)
		}
	}
	if _, ok := decodeDate([]byte("2020-06-15-")); ok {
		t.Error(`decodeDate accepted "2020-06-15-"`)
	}
}

func TestSchemaFor(t *testing.T) {
	tab := storage.MustNewTable("t",
		storage.Compress("i", []int64{1}, storage.LogInt),
		storage.Compress("d", []int64{1}, storage.LogDate),
		storage.Compress("p", []int64{1}, storage.LogDecimal),
		storage.NewStrings("s", []string{"a"}),
	)
	s := SchemaFor(tab)
	want := []Kind{Int64, Date, Decimal, Dict}
	for i, k := range want {
		if s[i].Kind != k {
			t.Fatalf("field %d kind = %v, want %v", i, s[i].Kind, k)
		}
	}
	if s[3].Dict == nil {
		t.Fatal("dict field missing dictionary")
	}
}
