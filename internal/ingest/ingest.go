// Package ingest generates per-schema CSV ingestion kernels: the write-path
// analogue of the read-path code generation in internal/core. Following the
// raw-data-processing literature (PAPERS.md: "Code Generation Techniques
// for Raw Data Processing"), a kernel is specialized to one table schema at
// construction time — one field decoder closure per column, selected by the
// column's logical type — and then parses raw CSV bytes in a single
// quote-aware pass straight into per-column append buffers. No intermediate
// row values are materialized and the warm path performs zero heap
// allocations: field references are (offset, length) pairs into the input,
// dictionary lookups go through the non-allocating map[string(bytes)] form,
// and every scratch buffer is reused across batches via Reset.
//
// Malformed input is handled per row under two policies: Strict aborts the
// batch on the first bad row, Skip counts and drops bad rows; either way
// errors are attributed to the 1-based input line the row started on.
package ingest

import (
	"fmt"

	"github.com/reprolab/swole/internal/storage"
)

// Kind is the decoded representation of a CSV field.
type Kind int

// Field kinds. Every kind decodes to int64 — the universal value
// representation of the storage layer.
const (
	Int64   Kind = iota // optionally signed integer
	Decimal             // fixed-point with up to storage.DecimalScale fractional digits
	Date                // YYYY-MM-DD, stored as days since 1970-01-01
	Dict                // dictionary-encoded string; value must be in the dictionary
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Decimal:
		return "decimal"
	case Date:
		return "date"
	case Dict:
		return "dict"
	}
	return "?"
}

// Field describes one CSV column.
type Field struct {
	Name string
	Kind Kind
	Dict *storage.Dict // required iff Kind == Dict
}

// Schema is the ordered field list of a CSV input.
type Schema []Field

// SchemaFor derives the CSV schema of a table: one field per column in
// column order, decoded according to the column's logical type. Appends
// through a kernel built from this schema therefore line up positionally
// with the table's columns.
func SchemaFor(t *storage.Table) Schema {
	s := make(Schema, len(t.Columns))
	for i, c := range t.Columns {
		f := Field{Name: c.Name}
		switch c.Log {
		case storage.LogDate:
			f.Kind = Date
		case storage.LogDecimal:
			f.Kind = Decimal
		case storage.LogString:
			f.Kind = Dict
			f.Dict = c.Dict
		default:
			f.Kind = Int64
		}
		s[i] = f
	}
	return s
}

// Policy controls what a malformed row does to the batch.
type Policy int

// Error policies.
const (
	Strict Policy = iota // first malformed row aborts the whole batch
	Skip                 // malformed rows are counted, attributed, and dropped
)

// MaxRowErrors caps how many row errors a kernel records per batch; the
// rejected counter keeps counting past the cap.
const MaxRowErrors = 64

// RowError attributes one malformed row to the input line it started on.
type RowError struct {
	Line int
	Msg  string
}

func (e RowError) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

// fieldRef locates one field's content inside the row's input bytes.
type fieldRef struct {
	lo, hi  int
	quoted  bool
	escaped bool // quoted and contains "" escape sequences
}

// Kernel is a compiled CSV parser for one schema. It is not safe for
// concurrent use; the append layer serializes writers per table.
type Kernel struct {
	schema Schema
	policy Policy
	dec    []func([]byte) (int64, bool) // generated per-field decoders
	badMsg []string                     // per-field static reject reasons

	cols [][]int64 // per-column append buffers, flushed by the caller

	frefs []fieldRef // scratch: current row's field extents
	vals  []int64    // scratch: current row's decoded values
	unq   []byte     // scratch: unescaped quoted-field content

	errs     []RowError
	line     int // 1-based line number of the next unparsed row
	accepted int
	rejected int
	err      error // latched Strict failure; poisons the kernel until Reset
}

// NewKernel compiles a kernel for the schema under the given policy.
func NewKernel(s Schema, p Policy) (*Kernel, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("ingest: empty schema")
	}
	k := &Kernel{
		schema: s,
		policy: p,
		dec:    make([]func([]byte) (int64, bool), len(s)),
		badMsg: make([]string, len(s)),
		cols:   make([][]int64, len(s)),
		line:   1,
	}
	for i, f := range s {
		k.badMsg[i] = fmt.Sprintf("field %d (%s): malformed %s", i+1, f.Name, f.Kind)
		switch f.Kind {
		case Int64:
			k.dec[i] = decodeInt
		case Decimal:
			k.dec[i] = decodeDecimal
		case Date:
			k.dec[i] = decodeDate
		case Dict:
			if f.Dict == nil {
				return nil, fmt.Errorf("ingest: field %s: dict kind without dictionary", f.Name)
			}
			d := f.Dict
			k.badMsg[i] = fmt.Sprintf("field %d (%s): value not in dictionary", i+1, f.Name)
			k.dec[i] = func(b []byte) (int64, bool) { return d.CodeBytes(b) }
		default:
			return nil, fmt.Errorf("ingest: field %s: unknown kind %d", f.Name, f.Kind)
		}
	}
	return k, nil
}

// Schema returns the schema the kernel was compiled for.
func (k *Kernel) Schema() Schema { return k.schema }

// SetPolicy switches the error policy. It does not touch buffered state;
// callers switch policies between batches, on a fresh or Reset kernel.
func (k *Kernel) SetPolicy(p Policy) { k.policy = p }

// Columns returns the per-column append buffers in schema order. The
// slices stay owned by the kernel and are invalidated by Reset.
func (k *Kernel) Columns() [][]int64 { return k.cols }

// Accepted returns the number of rows decoded into the column buffers.
func (k *Kernel) Accepted() int { return k.accepted }

// Rejected returns the number of malformed rows dropped (Skip) or the
// aborting row (Strict).
func (k *Kernel) Rejected() int { return k.rejected }

// Errors returns the recorded row errors, capped at MaxRowErrors. The
// slice is owned by the kernel and invalidated by Reset.
func (k *Kernel) Errors() []RowError { return k.errs }

// Reset clears counters, buffers, and any latched Strict failure while
// keeping every buffer's capacity — the warm path allocates nothing.
func (k *Kernel) Reset() {
	for i := range k.cols {
		k.cols[i] = k.cols[i][:0]
	}
	k.frefs = k.frefs[:0]
	k.vals = k.vals[:0]
	k.unq = k.unq[:0]
	k.errs = k.errs[:0]
	k.line = 1
	k.accepted, k.rejected = 0, 0
	k.err = nil
}

// Parse ingests data as one complete CSV document; a terminating newline
// is optional. Under Strict the first malformed row latches an error that
// Parse keeps returning until Reset.
func (k *Kernel) Parse(data []byte) error {
	if k.err != nil {
		return k.err
	}
	for pos := 0; pos < len(data); {
		next, newlines, reason := k.scanRow(data, pos)
		if err := k.processRow(data, reason); err != nil {
			k.err = err
			return err
		}
		pos = next
		k.line += newlines
	}
	return nil
}

// scanRow scans one row starting at pos: a comma-separated field list
// terminated by a newline or the end of the input. Quoted fields follow
// RFC 4180 — "" escapes a quote, commas and newlines are literal inside
// quotes. It fills k.frefs and returns the position after the row, the
// number of newline bytes it consumed, and a non-empty reason when the
// row's quoting is structurally malformed.
func (k *Kernel) scanRow(data []byte, pos int) (next, newlines int, reason string) {
	k.frefs = k.frefs[:0]
	i := pos
	for {
		if i < len(data) && data[i] == '"' {
			// Quoted field.
			j := i + 1
			escaped := false
			for {
				if j >= len(data) {
					k.frefs = append(k.frefs, fieldRef{i + 1, len(data), true, escaped})
					return len(data), newlines, "unterminated quoted field"
				}
				c := data[j]
				if c == '"' {
					if j+1 < len(data) && data[j+1] == '"' {
						escaped = true
						j += 2
						continue
					}
					break
				}
				if c == '\n' {
					newlines++
				}
				j++
			}
			k.frefs = append(k.frefs, fieldRef{i + 1, j, true, escaped})
			j++ // past the closing quote
			if j >= len(data) {
				return len(data), newlines, reason
			}
			switch data[j] {
			case ',':
				i = j + 1
				continue
			case '\n':
				return j + 1, newlines + 1, reason
			case '\r':
				if j+1 >= len(data) {
					return len(data), newlines, reason
				}
				if data[j+1] == '\n' {
					return j + 2, newlines + 1, reason
				}
			}
			if reason == "" {
				reason = "garbage after closing quote"
			}
			// Resync to the end of the (malformed) field.
			for j < len(data) && data[j] != ',' && data[j] != '\n' {
				j++
			}
			if j >= len(data) {
				return len(data), newlines, reason
			}
			if data[j] == ',' {
				i = j + 1
				continue
			}
			return j + 1, newlines + 1, reason
		}
		// Unquoted field: runs to the next comma or newline.
		j := i
		for j < len(data) && data[j] != ',' && data[j] != '\n' {
			j++
		}
		hi := j
		if j < len(data) && hi > i && data[hi-1] == '\r' {
			hi-- // strip the \r of a \r\n line ending
		}
		k.frefs = append(k.frefs, fieldRef{i, hi, false, false})
		if j >= len(data) {
			return len(data), newlines, reason
		}
		if data[j] == ',' {
			i = j + 1
			continue
		}
		return j + 1, newlines + 1, reason
	}
}

// processRow decodes the scanned row into the column buffers, or rejects
// it. Empty lines are skipped. All fields decode before anything is
// appended, so buffers never hold partial rows.
func (k *Kernel) processRow(data []byte, reason string) error {
	if len(k.frefs) == 1 && !k.frefs[0].quoted && k.frefs[0].lo == k.frefs[0].hi {
		return nil // empty line
	}
	if reason == "" && len(k.frefs) != len(k.schema) {
		reason = "wrong field count"
	}
	if reason == "" {
		k.vals = k.vals[:0]
		for idx := range k.schema {
			ref := k.frefs[idx]
			b := data[ref.lo:ref.hi]
			if ref.escaped {
				k.unq = unescape(k.unq[:0], b)
				b = k.unq
			}
			v, ok := k.dec[idx](b)
			if !ok {
				reason = k.badMsg[idx]
				break
			}
			k.vals = append(k.vals, v)
		}
	}
	if reason != "" {
		k.rejected++
		re := RowError{Line: k.line, Msg: reason}
		if len(k.errs) < MaxRowErrors {
			k.errs = append(k.errs, re)
		}
		if k.policy == Strict {
			return re
		}
		return nil
	}
	for idx, v := range k.vals {
		k.cols[idx] = append(k.cols[idx], v)
	}
	k.accepted++
	return nil
}

// unescape collapses RFC 4180 "" sequences into single quotes.
func unescape(dst, b []byte) []byte {
	for i := 0; i < len(b); i++ {
		c := b[i]
		dst = append(dst, c)
		if c == '"' {
			i++ // skip the second quote of the "" pair
		}
	}
	return dst
}
