package expr

// Eval evaluates a bound expression for a single tuple — the tuple-at-a-time
// access path of the Volcano engine (its filters, join residuals, HAVING and
// projection) and the reference the tile walker is tested against.
// A column leaf reads row i of its column and a slot leaf reads row[slot]; a
// tree bound to one kind of leaf ignores the other argument. Booleans are
// 0/1, and division is total: a zero divisor yields 0, here and in the tile
// walker, which evaluates lanes the predicate rejected.
func Eval(e Expr, i int, row []int64) int64 {
	switch x := e.(type) {
	case *Col:
		l := x.at()
		if l.Col != nil {
			return l.Col.Get(i)
		}
		return row[l.Slot]
	case *Const:
		return x.Val
	case *StrConst:
		return x.Code()
	case *Arith:
		l, r := Eval(x.L, i, row), Eval(x.R, i, row)
		switch x.Op {
		case Add:
			return l + r
		case Sub:
			return l - r
		case Mul:
			return l * r
		}
		if r == 0 {
			return 0
		}
		return l / r
	case *Cmp:
		l, r := Eval(x.L, i, row), Eval(x.R, i, row)
		var ok bool
		switch x.Op {
		case LT:
			ok = l < r
		case LE:
			ok = l <= r
		case GT:
			ok = l > r
		case GE:
			ok = l >= r
		case EQ:
			ok = l == r
		default:
			ok = l != r
		}
		if ok {
			return 1
		}
		return 0
	case *Between:
		v := Eval(x.X, i, row)
		if v >= Eval(x.Lo, i, row) && v <= Eval(x.Hi, i, row) {
			return 1
		}
		return 0
	case *In:
		v := Eval(x.X, i, row)
		for _, item := range x.List {
			if v == Eval(item, i, row) {
				return 1
			}
		}
		return 0
	case *Like:
		return int64(x.match[Eval(x.X, i, row)])
	case *Logic:
		switch x.Op {
		case And:
			for _, a := range x.Args {
				if Eval(a, i, row) == 0 {
					return 0
				}
			}
			return 1
		case Or:
			for _, a := range x.Args {
				if Eval(a, i, row) != 0 {
					return 1
				}
			}
			return 0
		default:
			if Eval(x.Args[0], i, row) == 0 {
				return 1
			}
			return 0
		}
	case *Case:
		for _, w := range x.Whens {
			if Eval(w.Cond, i, row) != 0 {
				return Eval(w.Then, i, row)
			}
		}
		if x.Else != nil {
			return Eval(x.Else, i, row)
		}
		return 0
	}
	panic("expr: cannot evaluate unknown node")
}
