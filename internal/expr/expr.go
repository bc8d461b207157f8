// Package expr provides the expression trees shared by the SQL frontend,
// the logical planner, the interpreted Volcano engine, and the code
// generator. A tree is bound once (Bind) against whatever its columns are
// read from and evaluated by one of two walkers that share no code: scalar
// (Eval: tuple at a time, the Volcano access path and the reference) and
// tiled (Evaluator: vector at a time, the prepass access path).
//
// The package also provides the analyses SWOLE's planner needs:
// computation-cost introspection for the cost models (Section III-A cites
// introspection for estimating comp) and attribute-reference collection for
// access merging (Section III-C detects attributes referenced by both a
// predicate and an aggregation).
package expr

import (
	"fmt"
	"strings"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/storage"
)

// Expr is a bound or unbound expression node. Integer semantics throughout:
// booleans are 0/1, decimals are fixed-point int64, strings are dictionary
// codes.
type Expr interface {
	// String renders SQL-ish text for plans, errors, and generated code.
	String() string
}

// Leaf is where a bound column's values come from, the one thing that
// differs between the ways a tree is evaluated: the rows of a stored column,
// or — when Col is nil — position Slot of a widened row (the scalar walker)
// or of a tile's vectors (the tile walker). Dict is the column's dictionary
// either way.
type Leaf struct {
	Col  *storage.Column
	Slot int
	Dict *storage.Dict
}

// Col references a column, optionally qualified. Bind resolves it to a Leaf.
type Col struct {
	Table string // optional qualifier
	Name  string

	leaf  Leaf
	bound bool
}

// NewCol returns an unbound column reference.
func NewCol(name string) *Col { return &Col{Name: name} }

// Column returns the storage column the reference is bound to: nil before
// Bind, and nil when it is bound to a slot.
func (c *Col) Column() *storage.Column { return c.leaf.Col }

// at returns the bound leaf. Evaluating an unbound column panics naming it,
// which flags a planner bug rather than silently reading slot 0.
func (c *Col) at() *Leaf {
	if !c.bound {
		unbound(c)
	}
	return &c.leaf
}

func unbound(c *Col) { panic("expr: column " + c.Name + " is not bound") }

func (c *Col) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Const is an integer (or date, or fixed-point decimal) literal.
type Const struct {
	Val int64
	// Repr preserves the source spelling for generated code; optional.
	Repr string
}

func (c *Const) String() string {
	if c.Repr != "" {
		return c.Repr
	}
	return fmt.Sprintf("%d", c.Val)
}

// StrConst is a string literal; Bind resolves it to a dictionary code when
// compared against a string column.
type StrConst struct {
	Val string

	// bound state
	code  int64
	bound bool
}

// Code returns the bound dictionary code; evaluating an unbound StrConst
// panics, which flags a planner bug rather than silently mismatching.
func (c *StrConst) Code() int64 {
	if !c.bound {
		panic("expr: unbound string literal " + c.String())
	}
	return c.code
}

func (c *StrConst) String() string { return "'" + c.Val + "'" }

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the operator's SQL spelling.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (a *Arith) String() string {
	return "(" + a.L.String() + " " + a.Op.String() + " " + a.R.String() + ")"
}

// CmpOp is a comparison operator (re-exported from vec for convenience).
type CmpOp int

// Comparison operators.
const (
	LT CmpOp = iota
	LE
	GT
	GE
	EQ
	NE
)

// String returns the operator's SQL spelling.
func (op CmpOp) String() string {
	return [...]string{"<", "<=", ">", ">=", "=", "<>"}[op]
}

// Cmp is a comparison producing 0/1.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c *Cmp) String() string {
	return c.L.String() + " " + c.Op.String() + " " + c.R.String()
}

// Between is lo <= x AND x <= hi.
type Between struct {
	X, Lo, Hi Expr
}

func (b *Between) String() string {
	return b.X.String() + " between " + b.Lo.String() + " and " + b.Hi.String()
}

// In tests membership of x in a literal list.
type In struct {
	X    Expr
	List []Expr
}

func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	return in.X.String() + " in (" + strings.Join(parts, ", ") + ")"
}

// Like matches a string column against a SQL LIKE pattern with % and _
// wildcards. At bind time the pattern is evaluated once per distinct
// dictionary value into a code-indexed lookup table, so per-tuple
// evaluation is a single indexed load.
type Like struct {
	X       Expr // must bind to a string column
	Pattern string
	Negate  bool

	match []byte // bound: dict-code -> 0/1
}

func (l *Like) String() string {
	op := " like "
	if l.Negate {
		op = " not like "
	}
	return l.X.String() + op + "'" + l.Pattern + "'"
}

// Logic is an n-ary AND/OR or unary NOT.
type Logic struct {
	Op   LogicOp
	Args []Expr
}

// LogicOp is a boolean connective.
type LogicOp int

// Boolean connectives.
const (
	And LogicOp = iota
	Or
	Not
)

func (l *Logic) String() string {
	switch l.Op {
	case Not:
		return "not (" + l.Args[0].String() + ")"
	default:
		word := " and "
		if l.Op == Or {
			word = " or "
		}
		parts := make([]string, len(l.Args))
		for i, a := range l.Args {
			parts[i] = "(" + a.String() + ")"
		}
		return strings.Join(parts, word)
	}
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond, Then Expr
}

// Case is a searched CASE expression. SWOLE can evaluate all arms
// unconditionally and mask the non-qualifying results (Section III-A's
// CASE discussion); the interpreted evaluators use standard short-circuit
// semantics, and both produce identical values.
type Case struct {
	Whens []CaseWhen
	Else  Expr // nil means 0
}

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("case")
	for _, w := range c.Whens {
		sb.WriteString(" when " + w.Cond.String() + " then " + w.Then.String())
	}
	if c.Else != nil {
		sb.WriteString(" else " + c.Else.String())
	}
	sb.WriteString(" end")
	return sb.String()
}

// Walk visits e and all descendants in preorder. It is the one generic
// traversal and allocates nothing: a compile walks every tree several times
// (CompCost, Cols, Bind's check, the statistics sampler).
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	switch x := e.(type) {
	case *Arith:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Cmp:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Between:
		Walk(x.X, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case *In:
		Walk(x.X, fn)
		for _, c := range x.List {
			Walk(c, fn)
		}
	case *Like:
		Walk(x.X, fn)
	case *Logic:
		for _, c := range x.Args {
			Walk(c, fn)
		}
	case *Case:
		for _, w := range x.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		if x.Else != nil {
			Walk(x.Else, fn)
		}
	}
}

// Cols returns the distinct column names referenced by e, in first-seen
// order. Access merging compares these sets between predicate and
// aggregation expressions.
func Cols(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	Walk(e, func(n Expr) {
		if c, ok := n.(*Col); ok && !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c.Name)
		}
	})
	return out
}

// CompCost estimates the computation cost of evaluating e once, by
// introspection over its operators (the comp term of the cost models).
func CompCost(e Expr, p cost.Params) float64 {
	var total float64
	Walk(e, func(n Expr) {
		switch x := n.(type) {
		case *Arith:
			switch x.Op {
			case Add, Sub:
				total += p.CompAdd
			case Mul:
				total += p.CompMul
			case Div:
				total += p.CompDiv
			}
		case *Cmp, *Between, *Like:
			total += p.CompCmp
		case *In:
			total += p.CompCmp * float64(len(x.List))
		case *Case:
			total += p.CompCmp * float64(len(x.Whens))
		}
	})
	return total
}
