package volcano

import (
	"fmt"
	"slices"
	"strings"

	"github.com/reprolab/swole/internal/storage"
)

// SortedRows returns a lexicographically sorted copy of the rows, the
// canonical form used to compare answers across engines.
func (r *Result) SortedRows() []Row {
	out := slices.Clone(r.Rows)
	slices.SortFunc(out, slices.Compare)
	return out
}

// EqualRows reports whether rows (in any order) match this result's rows.
func (r *Result) EqualRows(rows []Row) bool {
	theirs := slices.Clone(rows)
	slices.SortFunc(theirs, slices.Compare)
	return slices.EqualFunc(r.SortedRows(), theirs, slices.Equal)
}

// Col returns the values of the named output column.
func (r *Result) Col(name string) []int64 {
	idx := r.Fields.Index(name)
	if idx < 0 {
		panic("volcano: no result column " + name)
	}
	out := make([]int64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row[idx]
	}
	return out
}

// Format renders the result as a text table, decoding dictionary codes,
// dates and decimals. limit bounds the number of rows (0 = all).
func (r *Result) Format(limit int) string {
	var sb strings.Builder
	names := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		names[i] = f.Name
	}
	sb.WriteString(strings.Join(names, " | "))
	sb.WriteByte('\n')
	n := len(r.Rows)
	if limit > 0 && n > limit {
		n = limit
	}
	for _, row := range r.Rows[:n] {
		cells := make([]string, len(row))
		for j, v := range row {
			f := r.Fields[j]
			switch {
			case f.Dict != nil:
				cells[j] = f.Dict.Value(int(v))
			case f.Log == storage.LogDate:
				cells[j] = storage.FormatDate(int32(v))
			case f.Log == storage.LogDecimal:
				cells[j] = storage.FormatDecimal(v)
			default:
				cells[j] = fmt.Sprintf("%d", v)
			}
		}
		sb.WriteString(strings.Join(cells, " | "))
		sb.WriteByte('\n')
	}
	if limit > 0 && len(r.Rows) > limit {
		fmt.Fprintf(&sb, "... (%d rows total)\n", len(r.Rows))
	}
	return sb.String()
}
