// Package storage implements the column-oriented in-memory storage layer
// that all code generation strategies execute over, with the compression
// schemes from the paper's Section IV: dictionary encoding for
// low-cardinality string columns, null suppression (bit-width reduction)
// for low-cardinality integer columns, and fixed-point storage for
// decimals. It also provides the foreign-key indexes whose existence
// (mandated by referential-integrity checking) SWOLE's positional bitmaps
// exploit (Section III-D).
package storage

import (
	"fmt"

	"github.com/reprolab/swole/internal/vec"
)

// Kind is the physical width of a column after null suppression.
type Kind int

// Physical column widths.
const (
	KindInt8 Kind = iota
	KindInt16
	KindInt32
	KindInt64
)

// String returns the Go type spelling of the physical width.
func (k Kind) String() string {
	switch k {
	case KindInt8:
		return "int8"
	case KindInt16:
		return "int16"
	case KindInt32:
		return "int32"
	case KindInt64:
		return "int64"
	}
	return "?"
}

// Bytes returns the per-value width in bytes.
func (k Kind) Bytes() int {
	switch k {
	case KindInt8:
		return 1
	case KindInt16:
		return 2
	case KindInt32:
		return 4
	default:
		return 8
	}
}

// Logical is the logical type of a column.
type Logical int

// Logical column types.
const (
	LogInt     Logical = iota // plain integer
	LogDate                   // days since 1970-01-01
	LogDecimal                // fixed-point, scaled by 10^DecimalScale
	LogString                 // dictionary-encoded string codes
)

// DecimalScale is the fixed-point scale used throughout (two fractional
// digits: prices, discounts and taxes are stored multiplied by 100).
const DecimalScale = 2

// DecimalOne is the fixed-point representation of 1.00.
const DecimalOne int64 = 100

// Column is a typed, possibly compressed column. Exactly one of the typed
// slices is non-nil, selected by Kind; strategies switch on Kind once per
// query and run width-specialized kernels, exactly like generated code
// specialised to the physical schema would.
type Column struct {
	Name string
	Kind Kind
	Log  Logical
	Dict *Dict // non-nil iff Log == LogString

	I8  []int8
	I16 []int16
	I32 []int32
	I64 []int64
}

// Len returns the number of values.
func (c *Column) Len() int {
	switch c.Kind {
	case KindInt8:
		return len(c.I8)
	case KindInt16:
		return len(c.I16)
	case KindInt32:
		return len(c.I32)
	default:
		return len(c.I64)
	}
}

// Get returns value i widened to int64 — the scalar access path used by the
// interpreted Volcano engine and expr.Eval.
func (c *Column) Get(i int) int64 {
	switch c.Kind {
	case KindInt8:
		return int64(c.I8[i])
	case KindInt16:
		return int64(c.I16[i])
	case KindInt32:
		return int64(c.I32[i])
	default:
		return c.I64[i]
	}
}

// GetString returns value i decoded through the dictionary. It panics if
// the column is not a string column.
func (c *Column) GetString(i int) string {
	if c.Dict == nil {
		panic("storage: GetString on non-string column " + c.Name)
	}
	return c.Dict.Value(int(c.Get(i)))
}

// NewInt64 builds an uncompressed int64 column.
func NewInt64(name string, vals []int64, log Logical) *Column {
	return &Column{Name: name, Kind: KindInt64, Log: log, I64: vals}
}

// Compress builds a column from values of any stored width using null
// suppression: the narrowest physical width that losslessly holds every
// value is chosen (Section IV: "null suppression for low-cardinality
// integer columns"). The values are always copied, so the caller keeps its
// slice.
func Compress[T vec.Number](name string, vals []T, log Logical) *Column {
	lo, hi := bounds(vals)
	return build(name, kindFor(lo, hi), log, vals)
}

// NewStrings builds a dictionary-encoded string column (Section IV:
// "dictionary encoding for low-cardinality string columns"). Codes are
// assigned in lexicographic order of the distinct values so that range
// predicates on strings remain order-preserving, and stored at the
// narrowest width that fits the dictionary size.
func NewStrings(name string, vals []string) *Column {
	dict, codes := BuildDict(vals)
	return NewCodes(name, dict, codes)
}

// NewCodes builds a string column from codes already drawn in d, stored at
// the width d's size sets rather than the width the observed codes need,
// so a generator's widths do not depend on which values appear at a given
// scale. It panics if a code lies outside d.
func NewCodes[T vec.Number](name string, d *Dict, codes []T) *Column {
	if lo, hi := bounds(codes); len(codes) > 0 && (lo < 0 || hi >= int64(d.Len())) {
		panic(fmt.Sprintf("storage: column %s: codes [%d, %d] outside a %d-value dictionary", name, lo, hi, d.Len()))
	}
	c := build(name, kindFor(0, int64(d.Len()-1)), LogString, codes)
	c.Dict = d
	return c
}

// bounds returns the smallest and largest of vals and 0.
func bounds[T vec.Number](vals []T) (lo, hi int64) {
	for _, v := range vals {
		lo = min(lo, int64(v))
		hi = max(hi, int64(v))
	}
	return lo, hi
}

// build copies vals, which k holds losslessly, into a new column of width k.
func build[T vec.Number](name string, k Kind, log Logical, vals []T) *Column {
	c := &Column{Name: name, Kind: k, Log: log}
	switch k {
	case KindInt8:
		c.I8 = convert[int8](vals)
	case KindInt16:
		c.I16 = convert[int16](vals)
	case KindInt32:
		c.I32 = convert[int32](vals)
	default:
		c.I64 = convert[int64](vals)
	}
	return c
}

func convert[D, S vec.Number](vals []S) []D {
	out := make([]D, len(vals))
	for i, v := range vals {
		out[i] = D(v)
	}
	return out
}

// MemBytes returns the in-memory size of the column's value array.
func (c *Column) MemBytes() int { return c.Len() * c.Kind.Bytes() }

func (c *Column) String() string {
	return fmt.Sprintf("%s %s/%s[%d]", c.Name, c.Kind, logName(c.Log), c.Len())
}

func logName(l Logical) string {
	switch l {
	case LogInt:
		return "int"
	case LogDate:
		return "date"
	case LogDecimal:
		return "decimal"
	case LogString:
		return "string"
	}
	return "?"
}
