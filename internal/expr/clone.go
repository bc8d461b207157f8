package expr

// Clone returns a deep copy of the expression tree carrying only the
// public (unbound) query fields. Bind mutates nodes in place — a *Col
// caches its resolved leaf, a *StrConst its dictionary code —
// so an expression tree compiled against one table view must never be
// rebound against another while the first binding is still executing.
// The engine's statistics (core's stats.go) therefore bind a clone
// against the table's sample and leave the plan's tree bound to the table.
func Clone(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Col:
		return &Col{Table: x.Table, Name: x.Name}
	case *Const:
		return &Const{Val: x.Val, Repr: x.Repr}
	case *StrConst:
		return &StrConst{Val: x.Val}
	case *Arith:
		return &Arith{Op: x.Op, L: Clone(x.L), R: Clone(x.R)}
	case *Cmp:
		return &Cmp{Op: x.Op, L: Clone(x.L), R: Clone(x.R)}
	case *Between:
		return &Between{X: Clone(x.X), Lo: Clone(x.Lo), Hi: Clone(x.Hi)}
	case *In:
		out := &In{X: Clone(x.X)}
		if x.List != nil {
			out.List = make([]Expr, len(x.List))
			for i, e := range x.List {
				out.List[i] = Clone(e)
			}
		}
		return out
	case *Like:
		return &Like{X: Clone(x.X), Pattern: x.Pattern, Negate: x.Negate}
	case *Logic:
		out := &Logic{Op: x.Op}
		if x.Args != nil {
			out.Args = make([]Expr, len(x.Args))
			for i, a := range x.Args {
				out.Args[i] = Clone(a)
			}
		}
		return out
	case *Case:
		out := &Case{Else: Clone(x.Else)}
		if x.Whens != nil {
			out.Whens = make([]CaseWhen, len(x.Whens))
			for i, w := range x.Whens {
				out.Whens[i] = CaseWhen{Cond: Clone(w.Cond), Then: Clone(w.Then)}
			}
		}
		return out
	default:
		panic("expr: Clone: unknown node type " + e.String())
	}
}
