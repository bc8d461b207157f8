package expr

import (
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// CompileFilter compiles a bound predicate in negation normal form into f,
// the one-pass kernel over stored int8 and int16 columns (vec.Filter), and
// reports whether it could; f is left as it was where it could not. The
// predicate must be an AND of clauses, each a leaf or an OR of leaves. A leaf
// compares a stored int8 or int16 column against constants: a compare,
// BETWEEN, or IN (a leaf per item, so IN is a clause of its own or part of
// one), each of them possibly under NOT. A NOT IN over several items is a
// conjunction, one clause per item, and so only an AND's argument. Anything
// else — a compare of two columns, arithmetic, LIKE, a wider column, an OR
// over an AND — is the tile walker's (Evaluator.EvalBool), as is every
// predicate on a build without the kernel.
func CompileFilter(e Expr, f *vec.Filter) bool {
	if !vec.HasAVX2 || e == nil {
		return false
	}
	var b filterBuild
	if !b.and(e) {
		return false
	}
	f.Grow(b.n)
	b.f = f
	b.and(e)
	return true
}

// filterBuild walks a predicate twice: first counting its leaves (f nil),
// which also checks that the kernel covers it, then adding them to f.
type filterBuild struct {
	f *vec.Filter
	n int
}

// and adds e's clauses: each argument of an AND, else e as one clause.
func (b *filterBuild) and(e Expr) bool {
	if l, ok := e.(*Logic); ok && l.Op == And {
		for _, a := range l.Args {
			if !b.and(a) {
				return false
			}
		}
		return true
	}
	if l, ok := e.(*Logic); ok && l.Op == Not {
		if in, ok := l.Args[0].(*In); ok && len(in.List) > 1 {
			for _, item := range in.List {
				if !b.eq(in.X, item, true) {
					return false
				}
				b.end()
			}
			return true
		}
	}
	if !b.or(e) {
		return false
	}
	b.end()
	return true
}

// or adds e's leaves to the open clause: each argument of an OR, else e.
func (b *filterBuild) or(e Expr) bool {
	l, ok := e.(*Logic)
	switch {
	case !ok:
		return b.leaf(e, false)
	case l.Op == Or:
		for _, a := range l.Args {
			if !b.or(a) {
				return false
			}
		}
		return true
	case l.Op == Not:
		return b.leaf(l.Args[0], true)
	}
	return false
}

// leaf adds e's leaves, under not when not: one for a compare or BETWEEN
// (RangeLeaf), one per item of an IN, which under not must have one item.
func (b *filterBuild) leaf(e Expr, not bool) bool {
	if x, ok := e.(*In); ok {
		if len(x.List) == 0 || not && len(x.List) > 1 {
			return false
		}
		for _, item := range x.List {
			if !b.eq(x.X, item, not) {
				return false
			}
		}
		return true
	}
	x, lo, hi, neg, ok := RangeLeaf(e)
	return ok && b.add(x, lo, hi, neg != not)
}

// eq adds x = item, or x <> item under not.
func (b *filterBuild) eq(x, item Expr, not bool) bool {
	c, ok := constVal(item)
	return ok && b.add(x, c, c, not)
}

// add adds lo <= x <= hi XOR not where x is a stored int8 or int16 column.
func (b *filterBuild) add(x Expr, lo, hi int64, not bool) bool {
	c, ok := x.(*Col)
	if !ok || c.Column() == nil || c.Column().Kind > storage.KindInt16 {
		return false
	}
	b.n++
	if sc := c.Column(); b.f != nil {
		b.f.Add(vec.FilterLeaf{I8: sc.I8, I16: sc.I16, Lo: lo, Hi: hi, Not: not, Dict: sc.Dict != nil})
	}
	return true
}

// end closes the open clause.
func (b *filterBuild) end() {
	if b.f != nil {
		b.f.EndClause()
	}
}
