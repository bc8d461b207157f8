package vec

// The "prepass" (Crotty et al., Section II-A2) evaluates a predicate over a
// full tile into a comparison vector of 0/1 bytes, removing the control
// dependency that prevents vectorization in the data-centric strategy. This
// file holds the operators and the column-against-column compare; a column
// against constants is one range compare (CmpRange, CmpRangeU in filter.go).

// CmpOp identifies a comparison operator of the prepass kernels.
type CmpOp int

// Comparison operators supported by the prepass kernels.
const (
	LT CmpOp = iota // less than
	LE              // less than or equal
	GT              // greater than
	GE              // greater than or equal
	EQ              // equal
	NE              // not equal
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "="
	case NE:
		return "<>"
	}
	return "?"
}

// CmpCols writes out[i] = (a[i] op b[i]) for two columns, used by predicates
// such as TPC-H Q4's l_commitdate < l_receiptdate.
func CmpCols[T Number](op CmpOp, a, b []T, out []byte) {
	n := len(a)
	if n == 0 {
		return
	}
	_ = b[n-1]
	_ = out[n-1]
	switch op {
	case LT:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] < b[i])
		}
	case LE:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] <= b[i])
		}
	case GT:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] > b[i])
		}
	case GE:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] >= b[i])
		}
	case EQ:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] == b[i])
		}
	case NE:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] != b[i])
		}
	}
}
