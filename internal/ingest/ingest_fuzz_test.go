package ingest

import (
	"encoding/csv"
	"errors"
	"io"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/storage"
)

// Property test: the generated kernel must agree row for row with a naive
// reference parser built on encoding/csv plus strconv/math-big field
// decoding, over random schemas and documents containing quoted fields
// (embedded commas, quotes, newlines), empty lines, and malformed rows,
// under both error policies.

// --- reference field decoders (independent implementations) ---

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func refInt(s string) (int64, bool) {
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil
}

func refDecimal(s string) (int64, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	wholeStr, fracStr, hasDot := strings.Cut(s, ".")
	if !allDigits(wholeStr) {
		return 0, false
	}
	scaled, ok := new(big.Int).SetString(wholeStr, 10)
	if !ok {
		return 0, false
	}
	scaled.Mul(scaled, big.NewInt(100))
	if hasDot {
		if len(fracStr) < 1 || len(fracStr) > 2 || !allDigits(fracStr) {
			return 0, false
		}
		f, _ := strconv.Atoi(fracStr)
		if len(fracStr) == 1 {
			f *= 10
		}
		scaled.Add(scaled, big.NewInt(int64(f)))
	}
	if neg {
		scaled.Neg(scaled)
	}
	if !scaled.IsInt64() {
		return 0, false
	}
	return scaled.Int64(), true
}

func refDate(s string) (int64, bool) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return 0, false
	}
	var v [3]int
	for i, p := range parts {
		if len(p) > 8 || !allDigits(p) {
			return 0, false
		}
		v[i], _ = strconv.Atoi(p)
	}
	if v[1] < 1 || v[1] > 12 || v[2] < 1 || v[2] > 31 {
		return 0, false
	}
	return int64(storage.DateFromYMD(v[0], v[1], v[2])), true
}

func refDecode(f Field, s string) (int64, bool) {
	switch f.Kind {
	case Int64:
		return refInt(s)
	case Decimal:
		return refDecimal(s)
	case Date:
		return refDate(s)
	default:
		return f.Dict.Code(s)
	}
}

// refParse runs the naive reference parser: encoding/csv record splitting,
// then per-field decoding. It returns the accepted rows in column-major
// order and the number of rejected rows, stopping at the first bad row
// when strict.
func refParse(t *testing.T, schema Schema, doc []byte, strict bool) (cols [][]int64, rejected int) {
	t.Helper()
	cols = make([][]int64, len(schema))
	r := csv.NewReader(strings.NewReader(string(doc)))
	r.FieldsPerRecord = -1
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return cols, rejected
		}
		if err != nil {
			t.Fatalf("reference parser rejected generated doc: %v\n%q", err, doc)
		}
		bad := len(rec) != len(schema)
		vals := make([]int64, 0, len(schema))
		if !bad {
			for i, f := range schema {
				v, ok := refDecode(f, rec[i])
				if !ok {
					bad = true
					break
				}
				vals = append(vals, v)
			}
		}
		if bad {
			rejected++
			if strict {
				return cols, rejected
			}
			continue
		}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
	}
}

// --- random document generation ---

var wordAlphabet = []rune("abcXYZ09 ,\"\néß")

func randWord(rng *rand.Rand) string {
	n := rng.Intn(7)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(wordAlphabet[rng.Intn(len(wordAlphabet))])
	}
	return sb.String()
}

func randSchema(rng *rand.Rand) Schema {
	n := 1 + rng.Intn(5)
	s := make(Schema, n)
	for i := range s {
		f := Field{Name: "f" + strconv.Itoa(i), Kind: Kind(rng.Intn(4))}
		if f.Kind == Dict {
			vocab := make([]string, 1+rng.Intn(6))
			for j := range vocab {
				vocab[j] = randWord(rng)
			}
			f.Dict = storage.NewDict(vocab)
		}
		s[i] = f
	}
	return s
}

// randValue renders one field value, usually valid for its kind.
func randValue(rng *rand.Rand, f Field) string {
	if rng.Intn(10) == 0 { // deliberately suspicious value
		bad := []string{"", "abc", "1.2.3", "12x", "2020-13-99", "99999999999999999999", "1.234", "-", "+", "§missing§", "0x10"}
		return bad[rng.Intn(len(bad))]
	}
	switch f.Kind {
	case Int64:
		return strconv.FormatInt(rng.Int63n(1<<40)-(1<<39), 10)
	case Decimal:
		switch rng.Intn(3) {
		case 0:
			return strconv.FormatInt(rng.Int63n(10000)-5000, 10)
		case 1:
			return strconv.FormatInt(rng.Int63n(1000)-500, 10) + "." + strconv.Itoa(rng.Intn(10))
		default:
			return strconv.FormatInt(rng.Int63n(1000)-500, 10) + "." + string(rune('0'+rng.Intn(10))) + string(rune('0'+rng.Intn(10)))
		}
	case Date:
		return strconv.Itoa(rng.Intn(3000)) + "-" + strconv.Itoa(1+rng.Intn(12)) + "-" + strconv.Itoa(1+rng.Intn(31))
	default:
		return f.Dict.Value(rng.Intn(f.Dict.Len()))
	}
}

// renderField quotes when the content requires it (or randomly, to
// exercise the quoted path on plain values).
func renderField(rng *rand.Rand, v string) string {
	if strings.ContainsAny(v, ",\"\n\r") || rng.Intn(10) == 0 {
		return `"` + strings.ReplaceAll(v, `"`, `""`) + `"`
	}
	return v
}

func randDoc(rng *rand.Rand, schema Schema) []byte {
	var sb strings.Builder
	rows := rng.Intn(30)
	for r := 0; r < rows; r++ {
		if rng.Intn(10) == 0 {
			sb.WriteString("\n") // empty line
		}
		n := len(schema)
		switch rng.Intn(12) { // occasional wrong field count
		case 0:
			n--
		case 1:
			n++
		}
		parts := make([]string, 0, n)
		for i := 0; i < n; i++ {
			f := Field{Kind: Int64}
			if i < len(schema) {
				f = schema[i]
			}
			parts = append(parts, renderField(rng, randValue(rng, f)))
		}
		sb.WriteString(strings.Join(parts, ","))
		if r == rows-1 && rng.Intn(2) == 0 {
			break // final row without trailing newline
		}
		sb.WriteString("\n")
	}
	return []byte(sb.String())
}

func compareCols(t *testing.T, schema Schema, doc []byte, want, got [][]int64) {
	t.Helper()
	for c := range schema {
		if len(want[c]) != len(got[c]) {
			t.Fatalf("col %d: kernel %d rows, reference %d\ndoc: %q", c, len(got[c]), len(want[c]), doc)
		}
		for i := range want[c] {
			if want[c][i] != got[c][i] {
				t.Fatalf("col %d row %d: kernel %d, reference %d\ndoc: %q", c, i, got[c][i], want[c][i], doc)
			}
		}
	}
}

func TestKernelMatchesReferenceParser(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD0C5))
	for trial := 0; trial < 300; trial++ {
		schema := randSchema(rng)
		doc := randDoc(rng, schema)

		wantCols, wantRej := refParse(t, schema, doc, false)
		k, err := NewKernel(schema, Skip)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Parse(doc); err != nil {
			t.Fatalf("skip policy returned error: %v\ndoc: %q", err, doc)
		}
		if k.Rejected() != wantRej {
			t.Fatalf("skip: kernel rejected %d, reference %d\ndoc: %q", k.Rejected(), wantRej, doc)
		}
		compareCols(t, schema, doc, wantCols, k.Columns())

		strictCols, strictRej := refParse(t, schema, doc, true)
		ks, err := NewKernel(schema, Strict)
		if err != nil {
			t.Fatal(err)
		}
		err = ks.Parse(doc)
		if (err != nil) != (strictRej > 0) {
			t.Fatalf("strict: kernel err %v, reference rejected %d\ndoc: %q", err, strictRej, doc)
		}
		compareCols(t, schema, doc, strictCols, ks.Columns())
	}
}

// FuzzKernel feeds arbitrary bytes through the kernel and checks the
// structural invariants that must hold for any input: no panics, equal
// column lengths matching the accepted count, and the row-error cap.
func FuzzKernel(f *testing.F) {
	f.Add([]byte("1,2.50,2020-01-02,red\n-7,3,1999-12-31,blue\n"))
	f.Add([]byte("1,\"2.50\",2020-01-02,\"re\"\"d\"\n"))
	f.Add([]byte("\n\r\n1,2,3\nx,y\n"))
	f.Add([]byte("1,2.50,2020-01-02,\"red"))
	f.Fuzz(func(t *testing.T, data []byte) {
		schema := microSchema()
		whole, _ := NewKernel(schema, Skip)
		if err := whole.Parse(data); err != nil {
			t.Fatalf("skip policy returned error: %v", err)
		}
		for c := range schema {
			if len(whole.Columns()[c]) != whole.Accepted() {
				t.Fatalf("col %d has %d rows, accepted %d", c, len(whole.Columns()[c]), whole.Accepted())
			}
		}
		if len(whole.Errors()) > MaxRowErrors {
			t.Fatalf("%d recorded errors exceed cap", len(whole.Errors()))
		}
	})
}
