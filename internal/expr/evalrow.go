package expr

import "github.com/reprolab/swole/internal/vec"

// The tile form of EvalRow. A row-bound tree (BindRow) reads "row" position
// i from cols[i], a vector holding that joined-schema column for every lane
// of the tile — a root column widened in place or a parent column gathered
// through a join edge. One call evaluates the tree for all n lanes with one
// type switch per node, where EvalRow pays the switch per node per row. The
// answer for every lane equals EvalRow over that lane's row.

// rowVals returns e's value for every lane: the column vector itself for a
// bare column (no copy), otherwise a pooled scratch tile the caller returns
// with putInt when pooled is true.
func (ev *Evaluator) rowVals(e Expr, cols [][]int64, n int) (vals []int64, pooled bool) {
	if c, ok := e.(*Col); ok {
		if !c.rowBound {
			panic("expr: column " + c.Name + " not row-bound")
		}
		return cols[c.rowIdx], false
	}
	out := ev.getInt()
	ev.EvalRowInt(e, cols, n, out)
	return out, true
}

func (ev *Evaluator) release(vals []int64, pooled bool) {
	if pooled {
		ev.putInt(vals)
	}
}

// EvalRowInt evaluates a row-bound integer expression over the n lanes of
// the tile vectors, writing into out[:n].
func (ev *Evaluator) EvalRowInt(e Expr, cols [][]int64, n int, out []int64) {
	switch x := e.(type) {
	case *Col:
		v, _ := ev.rowVals(x, cols, n)
		copy(out[:n], v[:n])
	case *Const:
		for i := 0; i < n; i++ {
			out[i] = x.Val
		}
	case *StrConst:
		c := x.Code()
		for i := 0; i < n; i++ {
			out[i] = c
		}
	case *Arith:
		lv, lp := ev.rowVals(x.L, cols, n)
		rv, rp := ev.rowVals(x.R, cols, n)
		l, r, o := lv[:n], rv[:n], out[:n]
		switch x.Op {
		case Add:
			for i := range o {
				o[i] = l[i] + r[i]
			}
		case Sub:
			for i := range o {
				o[i] = l[i] - r[i]
			}
		case Mul:
			for i := range o {
				o[i] = l[i] * r[i]
			}
		default:
			// Total division: a zero divisor yields 0. Masking and CASE
			// evaluate every lane and every arm, so a lane the predicate (or
			// an earlier arm) excludes must not be able to fault.
			for i := range o {
				if d := r[i]; d != 0 {
					o[i] = l[i] / d
				} else {
					o[i] = 0
				}
			}
		}
		ev.release(lv, lp)
		ev.release(rv, rp)
	case *Case:
		// Every arm is evaluated and masked with "its condition and no
		// earlier condition", as in EvalInt.
		taken := ev.getBool()
		cond := ev.getBool()
		for i := 0; i < n; i++ {
			out[i] = 0
			taken[i] = 0
		}
		for _, w := range x.Whens {
			ev.EvalRowBool(w.Cond, cols, n, cond)
			val, vp := ev.rowVals(w.Then, cols, n)
			for i := 0; i < n; i++ {
				out[i] += val[i] * int64(cond[i]&^taken[i])
				taken[i] |= cond[i]
			}
			ev.release(val, vp)
		}
		if x.Else != nil {
			val, vp := ev.rowVals(x.Else, cols, n)
			for i := 0; i < n; i++ {
				out[i] += val[i] * int64(1-taken[i])
			}
			ev.release(val, vp)
		}
		ev.putBool(cond)
		ev.putBool(taken)
	default:
		// Boolean nodes used as integers.
		b := ev.getBool()
		ev.EvalRowBool(e, cols, n, b)
		for i := 0; i < n; i++ {
			out[i] = int64(b[i])
		}
		ev.putBool(b)
	}
}

// EvalRowBool evaluates a row-bound predicate over the n lanes of the tile
// vectors, writing 0/1 into out[:n].
func (ev *Evaluator) EvalRowBool(e Expr, cols [][]int64, n int, out []byte) {
	switch x := e.(type) {
	case *Cmp:
		l, lp := ev.rowVals(x.L, cols, n)
		if c, ok := constVal(x.R); ok {
			vec.CmpConstU(vec.CmpOp(x.Op), l[:n], c, out)
		} else {
			r, rp := ev.rowVals(x.R, cols, n)
			vec.CmpCols(vec.CmpOp(x.Op), l[:n], r[:n], out)
			ev.release(r, rp)
		}
		ev.release(l, lp)
	case *Between:
		v, vp := ev.rowVals(x.X, cols, n)
		lo, okLo := constVal(x.Lo)
		hi, okHi := constVal(x.Hi)
		if okLo && okHi {
			vec.CmpConstBetweenU(v[:n], lo, hi, out)
		} else {
			l, lp := ev.rowVals(x.Lo, cols, n)
			h, hp := ev.rowVals(x.Hi, cols, n)
			tmp := ev.getBool()
			vec.CmpCols(vec.GE, v[:n], l[:n], out)
			vec.CmpCols(vec.LE, v[:n], h[:n], tmp)
			vec.And(out[:n], tmp[:n])
			ev.putBool(tmp)
			ev.release(l, lp)
			ev.release(h, hp)
		}
		ev.release(v, vp)
	case *In:
		v, vp := ev.rowVals(x.X, cols, n)
		tmp := ev.getBool()
		vec.Fill(out[:n], 0)
		for _, item := range x.List {
			if c, ok := constVal(item); ok {
				vec.CmpConstEQU(v[:n], c, tmp)
			} else {
				it, ip := ev.rowVals(item, cols, n)
				vec.CmpCols(vec.EQ, v[:n], it[:n], tmp)
				ev.release(it, ip)
			}
			vec.Or(out[:n], tmp[:n])
		}
		ev.putBool(tmp)
		ev.release(v, vp)
	case *Like:
		v, vp := ev.rowVals(x.X, cols, n)
		for i := 0; i < n; i++ {
			out[i] = x.match[v[i]]
		}
		ev.release(v, vp)
	case *Logic:
		ev.EvalRowBool(x.Args[0], cols, n, out)
		if x.Op == Not {
			vec.Not(out[:n])
			return
		}
		tmp := ev.getBool()
		for _, a := range x.Args[1:] {
			ev.EvalRowBool(a, cols, n, tmp)
			if x.Op == And {
				vec.And(out[:n], tmp[:n])
			} else {
				vec.Or(out[:n], tmp[:n])
			}
		}
		ev.putBool(tmp)
	default:
		// Integer expression used as a predicate: nonzero is true.
		v, vp := ev.rowVals(e, cols, n)
		vec.CmpConstNE(v[:n], 0, out)
		ev.release(v, vp)
	}
}
