package expr

import (
	"fmt"

	"github.com/reprolab/swole/internal/storage"
)

// Source resolves a column name to the leaf its values are read from. A
// stored table (Columns), the Volcano engine's intermediate tuples and the
// compiled plans' output rows and tile vectors are sources.
type Source interface {
	Leaf(name string) (Leaf, error)
}

type tableSource struct{ t *storage.Table }

// Columns is the Source of a stored table: every name binds to its column.
func Columns(t *storage.Table) Source { return tableSource{t} }

func (s tableSource) Leaf(name string) (Leaf, error) {
	col := s.t.Column(name)
	if col == nil {
		return Leaf{}, fmt.Errorf("expr: table %s has no column %s", s.t.Name, name)
	}
	return Leaf{Col: col, Dict: col.Dict}, nil
}

// Field describes one column of a positional row schema: a Volcano tuple,
// or a compiled plan's aggregate output row and result header.
type Field struct {
	Name string
	Dict *storage.Dict
	Log  storage.Logical
}

// Fields is a positional row schema: the Source of a row whose columns are
// slots.
type Fields []Field

// Leaf implements Source.
func (f Fields) Leaf(name string) (Leaf, error) {
	if i := f.Index(name); i >= 0 {
		return Leaf{Slot: i, Dict: f[i].Dict}, nil
	}
	return Leaf{}, NoColumn(name)
}

// Index returns the position of name, or -1.
func (f Fields) Index(name string) int {
	for i, fd := range f {
		if fd.Name == name {
			return i
		}
	}
	return -1
}

// NoColumn is the error of a positional Source — a row or a tile's vectors —
// asked for a name it does not hold.
func NoColumn(name string) error {
	return fmt.Errorf("expr: no column %s in row schema", name)
}

// Bind resolves every column reference in e against src, resolves string
// literals to dictionary codes, and precomputes LIKE lookup tables. It is
// idempotent, and rebinding a tree to another source replaces the first
// binding. Expressions spanning multiple tables are split by the planner
// before binding; Bind rejects columns absent from src, and rejects string
// literals that no comparison context resolved (e.g. a bare string used as
// a boolean operand).
func Bind(e Expr, src Source) error {
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	// Leaves first: the string contexts below read their column's dictionary.
	Walk(e, func(n Expr) {
		if c, ok := n.(*Col); ok && err == nil {
			var leaf Leaf
			if leaf, err = src.Leaf(c.Name); err == nil {
				c.leaf, c.bound = leaf, true
			}
		}
	})
	if err != nil {
		return err
	}
	// Walk is preorder, so a literal's comparison context resolves it before
	// the walk reaches the literal itself; one still unresolved there has none.
	Walk(e, func(n Expr) {
		switch x := n.(type) {
		case *StrConst:
			if !x.bound {
				fail(fmt.Errorf("expr: string literal %s is not compared against a string column", x))
			}
		case *Cmp:
			// Dictionary codes are order-preserving, so any operator works on
			// the literal's code.
			if col, sc := asColStr(x.L, x.R); sc != nil {
				if col.leaf.Dict == nil {
					fail(fmt.Errorf("expr: string literal %s compared against non-string operand", sc))
					return
				}
				resolveStrConst(sc, col.leaf.Dict)
			}
		case *In:
			col, _ := x.X.(*Col)
			for _, item := range x.List {
				if sc, ok := item.(*StrConst); ok {
					if col == nil || col.leaf.Dict == nil {
						fail(fmt.Errorf("expr: string literal %s in IN over non-string operand", sc))
						return
					}
					resolveStrConst(sc, col.leaf.Dict)
				}
			}
		case *Like:
			col, ok := x.X.(*Col)
			if !ok || col.leaf.Dict == nil {
				fail(fmt.Errorf("expr: LIKE requires a string column, got %s", x.X))
				return
			}
			pat := x.Pattern
			x.match = col.leaf.Dict.MatchPred(func(s string) bool { return MatchLike(s, pat) })
			if x.Negate {
				for i := range x.match {
					x.match[i] ^= 1
				}
			}
		}
	})
	return err
}

// asColStr matches a comparison of a bare column against a string literal,
// on either side.
func asColStr(a, b Expr) (*Col, *StrConst) {
	if c, ok := a.(*Col); ok {
		if s, ok := b.(*StrConst); ok {
			return c, s
		}
	}
	if c, ok := b.(*Col); ok {
		if s, ok := a.(*StrConst); ok {
			return c, s
		}
	}
	return nil, nil
}

func resolveStrConst(sc *StrConst, d *storage.Dict) {
	if code, ok := d.Code(sc.Val); ok {
		sc.code = code
	} else {
		// Absent value: use a code below every real code so equality is
		// always false and inequality always true.
		sc.code = -1
	}
	sc.bound = true
}

// MatchLike reports whether s matches a SQL LIKE pattern, where % matches
// any run (including empty) and _ matches exactly one byte. Patterns and
// values in the paper's workloads are ASCII.
func MatchLike(s, pattern string) bool {
	// Iterative two-pointer matcher with backtracking to the last %.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
