package expr

import (
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// Evaluator is the tile walker: it evaluates bound expressions a tile at a
// time with one type switch per node, reusing scratch buffers across calls,
// and allocates nothing once they are warm. Every compiled plan and the
// statistics sampler run on it.
type Evaluator struct {
	intScratch  [][]int64
	boolScratch [][]byte

	// ctr, when set, tallies which specialized kernel variant each tile
	// ran through (width-specialized cmp prepass, unrolled widen, dict
	// keys). Plans bind a per-worker counter block at bind() time.
	ctr *vec.Counters
}

// NewEvaluator returns an evaluator with empty scratch pools.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// SetCounters directs per-tile variant tallies into ctr (nil disables
// counting). The counter block must outlive the evaluator's use.
func (ev *Evaluator) SetCounters(ctr *vec.Counters) { ev.ctr = ctr }

func (ev *Evaluator) getInt() []int64 {
	if n := len(ev.intScratch); n > 0 {
		s := ev.intScratch[n-1]
		ev.intScratch = ev.intScratch[:n-1]
		return s
	}
	return make([]int64, vec.TileSize)
}

func (ev *Evaluator) putInt(s []int64) { ev.intScratch = append(ev.intScratch, s) }

func (ev *Evaluator) getBool() []byte {
	if n := len(ev.boolScratch); n > 0 {
		s := ev.boolScratch[n-1]
		ev.boolScratch = ev.boolScratch[:n-1]
		return s
	}
	return make([]byte, vec.TileSize)
}

func (ev *Evaluator) putBool(s []byte) { ev.boolScratch = append(ev.boolScratch, s) }

// Tile is the lanes one call evaluates. A column leaf reads rows
// [Base, Base+N) of its column, at native width where a kernel exists; a
// slot leaf reads Vecs[slot][:N] — a root column widened in place or a
// parent column gathered through a join edge — without a copy. Lane i of
// every answer equals Eval over row Base+i and the row (Vecs[0][i], …).
type Tile struct {
	Base, N int
	Vecs    [][]int64
}

// Rows is the tile of rows [base, base+n) of a tree bound to columns only.
func Rows(base, n int) Tile { return Tile{Base: base, N: n} }

// vals returns e's value for every lane: the tile vector itself for a slot
// leaf, otherwise a pooled scratch tile, which release returns.
func (ev *Evaluator) vals(e Expr, t Tile) (vals []int64, pooled bool) {
	if c, ok := e.(*Col); ok && c.at().Col == nil {
		return t.Vecs[c.leaf.Slot], false
	}
	out := ev.getInt()
	ev.EvalInt(e, t, out)
	return out, true
}

func (ev *Evaluator) release(vals []int64, pooled bool) {
	if pooled {
		ev.putInt(vals)
	}
}

// count tallies one compare at the column's physical width, or widened
// (kind 3) when it ran over int64 vectors.
func (ev *Evaluator) count(kind int, dict bool) {
	if ev.ctr != nil {
		ev.ctr.Cmp[kind]++
		if dict {
			ev.ctr.DictKeys++
		}
	}
}

// EvalBool evaluates a bound predicate over the tile, writing 0/1 into
// out[:t.N] — the prepass loop of Figure 1.
func (ev *Evaluator) EvalBool(e Expr, t Tile, out []byte) {
	n := t.N
	switch x := e.(type) {
	case *Cmp:
		l, op, c, lit := literalRight(x)
		if !lit {
			lv, lp := ev.vals(x.L, t)
			rv, rp := ev.vals(x.R, t)
			vec.CmpCols(op, lv[:n], rv[:n], out)
			ev.release(lv, lp)
			ev.release(rv, rp)
		} else {
			// Width-specialized fast path: a stored column against a literal
			// compares at the column's physical width, hoisting the Kind
			// switch out of the loop (control-flow duplication by hand).
			if col, ok := l.(*Col); ok {
				if sc := col.at().Col; sc != nil && sc.CmpConstInto(op, c, t.Base, n, out) {
					ev.count(int(sc.Kind), sc.Dict != nil)
					return
				}
			}
			v, p := ev.vals(l, t)
			vec.CmpConstU(op, v[:n], c, out)
			ev.release(v, p)
		}
		ev.count(3, false)
	case *Between:
		lo, okLo := constVal(x.Lo)
		hi, okHi := constVal(x.Hi)
		if col, ok := x.X.(*Col); ok && okLo && okHi {
			if sc := col.at().Col; sc != nil && sc.CmpBetweenInto(lo, hi, t.Base, n, out) {
				ev.count(int(sc.Kind), false)
				return
			}
		}
		v, vp := ev.vals(x.X, t)
		if okLo && okHi {
			vec.CmpConstBetweenU(v[:n], lo, hi, out)
		} else {
			l, lp := ev.vals(x.Lo, t)
			h, hp := ev.vals(x.Hi, t)
			tmp := ev.getBool()
			vec.CmpCols(vec.GE, v[:n], l[:n], out)
			vec.CmpCols(vec.LE, v[:n], h[:n], tmp)
			vec.And(out[:n], tmp[:n])
			ev.putBool(tmp)
			ev.release(l, lp)
			ev.release(h, hp)
		}
		ev.release(v, vp)
		ev.count(3, false)
	case *In:
		v, vp := ev.vals(x.X, t)
		tmp := ev.getBool()
		vec.Fill(out[:n], 0)
		for _, item := range x.List {
			if c, ok := constVal(item); ok {
				vec.CmpConstEQU(v[:n], c, tmp)
			} else {
				it, ip := ev.vals(item, t)
				vec.CmpCols(vec.EQ, v[:n], it[:n], tmp)
				ev.release(it, ip)
			}
			vec.Or(out[:n], tmp[:n])
		}
		ev.putBool(tmp)
		ev.release(v, vp)
	case *Like:
		v, vp := ev.vals(x.X, t)
		for i := 0; i < n; i++ {
			out[i] = x.match[v[i]]
		}
		ev.release(v, vp)
	case *Logic:
		ev.EvalBool(x.Args[0], t, out)
		if x.Op == Not {
			vec.Not(out[:n])
			return
		}
		// Terms accumulate in the tile's mask, and a tile the earlier terms
		// decided — every lane accepted under OR, none left under AND — skips
		// the rest: term-at-a-time evaluation with no bitmap in between.
		tmp := ev.getBool()
		for _, a := range x.Args[1:] {
			if x.Op == Or && vec.AllOnes(out[:n]) || x.Op == And && vec.AllZeros(out[:n]) {
				break
			}
			ev.EvalBool(a, t, tmp)
			if x.Op == Or {
				vec.Or(out[:n], tmp[:n])
			} else {
				vec.And(out[:n], tmp[:n])
			}
		}
		ev.putBool(tmp)
	default:
		// Integer expression used as a predicate: nonzero is true.
		v, vp := ev.vals(e, t)
		vec.CmpConstNEU(v[:n], 0, out)
		ev.release(v, vp)
	}
}

// EvalInt evaluates a bound integer expression over the tile, writing into
// out[:t.N].
func (ev *Evaluator) EvalInt(e Expr, t Tile, out []int64) {
	n := t.N
	switch x := e.(type) {
	case *Col:
		c := x.at().Col
		if c == nil {
			copy(out[:n], t.Vecs[x.leaf.Slot][:n])
			return
		}
		c.WidenInto(t.Base, n, out)
		if ev.ctr != nil {
			ev.ctr.Widen[int(c.Kind)]++
			if c.Dict != nil {
				ev.ctr.DictKeys++
			}
		}
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
		lv, lp := ev.vals(x.L, t)
		rv, rp := ev.vals(x.R, t)
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
			// Total division, as in Eval: masking and CASE evaluate every
			// lane and every arm, so a lane the predicate (or an earlier arm)
			// excludes must not be able to fault.
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
		// Unconditional evaluation of all arms with masking — the SWOLE
		// treatment of CASE from Section III-A. First-match-wins semantics
		// are preserved by masking each arm with "its condition and no
		// earlier condition".
		taken := ev.getBool()
		cond := ev.getBool()
		for i := 0; i < n; i++ {
			out[i] = 0
			taken[i] = 0
		}
		for _, w := range x.Whens {
			ev.EvalBool(w.Cond, t, cond)
			val, vp := ev.vals(w.Then, t)
			for i := 0; i < n; i++ {
				out[i] += val[i] * int64(cond[i]&^taken[i])
				taken[i] |= cond[i]
			}
			ev.release(val, vp)
		}
		if x.Else != nil {
			val, vp := ev.vals(x.Else, t)
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
		ev.EvalBool(e, t, b)
		for i := 0; i < n; i++ {
			out[i] = int64(b[i])
		}
		ev.putBool(b)
	}
}

// constVal reports e's value if e is a literal.
func constVal(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *Const:
		return x.Val, true
	case *StrConst:
		return x.Code(), true
	}
	return 0, false
}

// ColumnCmp reports a compare of a bound stored column against a literal
// as col op c, the literal moved to the right: the form EvalBool compares at
// the column's stored width.
func ColumnCmp(e Expr) (col *storage.Column, op vec.CmpOp, c int64, ok bool) {
	if x, isCmp := e.(*Cmp); isCmp {
		l, op, c, lit := literalRight(x)
		if lc, isCol := l.(*Col); lit && isCol && lc.Column() != nil {
			return lc.Column(), op, c, true
		}
	}
	return nil, 0, 0, false
}

// literalRight is x as l op c when either side is a literal (lit), the
// literal moved to the right: c op v ⇔ v flip(op) c.
func literalRight(x *Cmp) (l Expr, op vec.CmpOp, c int64, lit bool) {
	l, op = x.L, vec.CmpOp(x.Op)
	if c, lit = constVal(x.R); !lit {
		if c, lit = constVal(x.L); lit {
			l, op = x.R, flipCmp(op)
		}
	}
	return l, op, c, lit
}

// flipCmp mirrors an operator across its operands: c op v ⇔ v flip(op) c.
func flipCmp(op vec.CmpOp) vec.CmpOp {
	switch op {
	case vec.LT:
		return vec.GT
	case vec.LE:
		return vec.GE
	case vec.GT:
		return vec.LT
	case vec.GE:
		return vec.LE
	}
	return op // EQ and NE are symmetric
}
