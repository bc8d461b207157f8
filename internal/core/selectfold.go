package core

import (
	"slices"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// The plan's one fold decision: bindFold computes the fold key at compile and
// binds the loop it names at the stored widths it reads (byKind,
// storage.Stored); no per-tile function picks a kernel. Explain.Kernel names
// the key record(widths)/table/mask. The record is the scalar lanes (sum,
// sumprod, min or max, joined by "+"), sum1–sum3 or minmax (ht.FoldSum1..3,
// FoldMinMax) or lanes (FoldTile or FoldTileKeyMasked, then SumTile, MinTile
// or MaxTile per further lane); the widths are the keys' then the arguments'
// (int64 for tile vectors); the table scalar, keyed, packed or hashed (a
// hashed table folds by the lane passes alone); the mask value, key or none
// (the pair fold). A scalar fold that computes its predicate inline names
// its root filter in the mask's place (vec.Filter.String): sum(i8)/scalar/cmp(i8,i8)/avx2
// (inlineFold); a record fold into a small group table by the AVX2 passes
// names the variant after the mask: sum2(i8;i8,i32)/keyed/key/avx2
// (groupFold).

// widths names stored widths after name, each after its separator in seps (the last repeating).
func widths(name, seps string, ks ...storage.Kind) string {
	b := append(make([]byte, 0, 32), name...)
	for i, k := range ks {
		b = append(append(b, seps[min(i, len(seps)-1)]), [...]string{"i8", "i16", "i32", "i64"}[k]...)
	}
	return string(append(b, ')'))
}

// foldFn folds one tile's m lanes, under the mask cmp, into worker w's table
// or stripe.
type foldFn func(p *PreparedSelect, s *worker, w, base, m int, cmp []byte)

// fuseBytes bounds the record array of the key-addressed table a record fold
// folds into. Over it the record loop measured no faster than the lane passes
// for one sum and slower for two or three (BenchmarkSteadyFootprint;
// EXPERIMENTS.md, "Classic shapes at stored width").
const fuseBytes = 1 << 20

// bindFold names the fold key in Explain.Kernel, binds its loop (p.foldTile)
// and p.fill, and reports whether the loop reads the key columns in place.
// Grouped, it takes a record fold where recordFold admits one (by the AVX2
// passes where groupFold admits them), else one sum on a keyed table folds
// as pairs (sum1 over tile vectors) unless key masking routes its rejected
// lanes, else the lane passes. One sum whose every lane passes (hybrid, or
// nothing filters) reads no mask.
func (c *selectCompile) bindFold() (keysInPlace bool) {
	p := c.p
	p.fill = p.tech != TechHybrid
	if len(c.q.GroupBy) == 0 {
		lanes, mask := c.bindScalar(), "value"
		if a, b, ok := c.inlineFold(); ok && p.tech == TechValueMasking {
			p.inline, p.fa, p.fb, mask = true, a, b, p.filter.String()
		}
		p.foldTile, p.ex.Kernel = foldScalar, lanes+"/scalar/"+mask
		return false
	}
	record, ws, table, mask, keys := "lanes", "(i64)", "keyed", "value", tileKeyFn[int64](filled)
	switch {
	case p.ex.DenseDomain == 0:
		table = "hashed"
	case c.packed:
		table = "packed"
	}
	if p.tech == TechKeyMasking {
		if mask = "key"; table == "hashed" {
			keys = nulled
		}
	}
	// The lane passes fold a leading sum with the count, and the rest after.
	lead, acc, rest := argFn[int64](func(*PreparedSelect, *worker, int, int) []int64 { return nil }), 0, p.fold
	if len(rest) > 0 && (p.aggs[rest[0]].kind == AggSum || p.aggs[rest[0]].kind == AggAvg) {
		lead, acc, rest = operandOf(&p.aggs[rest[0]].arg), p.aggs[rest[0]].lane, rest[1:]
	}
	pairs := c.lanes == 1 && len(rest) == 0 && table != "hashed"
	probes := slices.ContainsFunc(p.edges, func(be boundEdge) bool { return be.used && be.bm != nil })
	if pairs && (p.tech == TechHybrid || c.q.Filter == nil && c.q.Residual == nil && !probes) {
		mask, p.fill = "none", false
	}
	r, variant := c.recordFold(mask), ""
	switch {
	case r != nil:
		record, ws = r.record, r.widths
		if p.foldTile = c.groupFold(r, mask); p.foldTile != nil {
			variant = "/avx2"
			break
		}
		p.foldTile = byKind(r.kind, bindRecord[int8], bindRecord[int16], bindRecord[int32], bindRecord[int64])(r, mask)
	case pairs && mask != "key":
		record, ws = "sum1", "(i64;i64)"
		p.foldTile = sum1(keys, lead, mask)
	default:
		resolve := (*ht.AggTable).FoldTile
		if mask == "key" && table != "hashed" {
			resolve = (*ht.AggTable).FoldTileKeyMasked
		}
		for _, i := range rest {
			p.aggs[i].tile = [...]func(*ht.AggTable, []int32, int, []int64, []byte){AggSum: (*ht.AggTable).SumTile,
				AggAvg: (*ht.AggTable).SumTile, AggMin: (*ht.AggTable).MinTile, AggMax: (*ht.AggTable).MaxTile}[p.aggs[i].kind]
		}
		p.foldTile = lanePass(keys, resolve, lead, acc, rest)
	}
	p.ex.Kernel = record + ws + "/" + table + "/" + mask + variant
	return r != nil && r.keys != nil
}

// recordFold is a record fold's key parts and what its loop reads in place.
type recordFold struct {
	record, widths string
	kind           storage.Kind      // the keys' width: the key columns', or int64 for packed keys
	keys           []*storage.Column // one or two root key columns of one width, or nil: packed keys
	mul, add       int64             // in-place keys are keys[0]·mul + keys[last] + add
	args           []*storage.Column // by lane; minmax's one operand
	keyMask        bool              // key masking on a key-addressed table
}

// recordFold admits a record fold — one to three sums or averages, or a min
// and a max over one operand, each over a bare root column — under masking
// into a key-addressed table of at most fuseBytes, or returns nil. Min and
// max trade lanes: min first. Keys are read in place as at most two root
// columns of one width (one for sum1).
func (c *selectCompile) recordFold(mask string) *recordFold {
	p := c.p
	if c.lanes < 1 || c.lanes > 3 || p.tech != TechValueMasking && p.tech != TechKeyMasking ||
		c.htBytes > fuseBytes || p.ex.DenseDomain == 0 {
		return nil
	}
	var cols [3]*storage.Column // by lane; nothing is allocated for a statement without a record fold
	lanes := make([]*selAgg, 0, 3)
	for i := range p.aggs {
		col, ok := c.q.Aggs[i].Arg.(*expr.Col)
		switch a := &p.aggs[i]; {
		case a.lane < 0:
		case !ok || p.root.Column(col.Name) == nil:
			return nil
		default:
			cols[a.lane], lanes = p.root.Column(col.Name), append(lanes, a)
		}
	}
	minmax := len(lanes) == 2 && min(lanes[0].kind, lanes[1].kind) == AggMin && max(lanes[0].kind, lanes[1].kind) == AggMax && cols[0] == cols[1]
	if !minmax && slices.ContainsFunc(lanes, func(a *selAgg) bool { return a.kind != AggSum && a.kind != AggAvg }) {
		return nil
	}
	if minmax && lanes[0].kind == AggMax {
		lanes[0].lane, lanes[1].lane = lanes[1].lane, lanes[0].lane
	}
	r := &recordFold{record: [...]string{"", "sum1", "sum2", "sum3"}[c.lanes], kind: storage.KindInt64,
		args: append([]*storage.Column(nil), cols[:c.lanes]...), keyMask: mask == "key"}
	if minmax {
		r.record, r.args = "minmax", r.args[:1]
	}
	for _, tc := range c.keyCols {
		if r.keys = append(r.keys, tc.col); len(c.keyCols) > min(c.lanes, 2) || tc.src >= 0 || tc.col.Kind != c.keyCols[0].col.Kind {
			r.keys = nil // not in place
			break
		}
	}
	for i := 0; i < len(r.keys) && !p.keys.byValue; i++ { // packed keys: a lone or last place value is 1
		r.add, r.mul = r.add-p.keys.lo[i]*p.keys.mult[i], p.keys.mult[0]*int64(i)
	}
	if r.keys != nil {
		r.kind = r.keys[0].Kind
	}
	ws := append(make([]storage.Kind, 0, 4), r.kind)
	for _, col := range r.args {
		ws = append(ws, col.Kind)
	}
	r.widths = widths("", "(;,", ws...)
	return r
}

// groupFold binds r's loop over a small group table (ht.FoldSum1Groups,
// FoldSum2Groups or FoldMinMaxGroups: vec.GroupFold's AVX2 passes) where the
// CPU runs it and r has its shape: keys read in place at int8 into a
// key-addressed table of at most vec.GroupSlots records, the throwaway
// record included, under value or key masking; one or two sums over int8 or
// int32 columns, or a min and a max over an int32 one. An int32 sum folds in
// int32 lanes where the column's range proves them exact (vec.NarrowI32),
// else widened. Elsewhere it returns nil, allocating nothing.
func (c *selectCompile) groupFold(r *recordFold, mask string) foldFn {
	p := c.p
	if !vec.HasAVX2 || r.keys == nil || r.kind != storage.KindInt8 || mask == "none" ||
		p.ex.DenseDomain+1 > vec.GroupSlots || r.record == "sum3" {
		return nil
	}
	var wide [2]bool
	for i, col := range r.args {
		if col.Kind != storage.KindInt8 && col.Kind != storage.KindInt32 || r.record == "minmax" && col.Kind != storage.KindInt32 {
			return nil
		}
		if col.Kind == storage.KindInt32 {
			wide[i] = !vec.NarrowI32(c.e.colRange(p.root, col))
		}
	}
	i8 := func(col *storage.Column) bool { return col.Kind == storage.KindInt8 }
	switch {
	case r.record == "minmax":
		return groupMinMax(r)
	case r.record == "sum1" && i8(r.args[0]):
		return groupSum1[int8](r, wide[0])
	case r.record == "sum1":
		return groupSum1[int32](r, wide[0])
	case i8(r.args[0]) && i8(r.args[1]):
		return groupSum2[int8, int8](r, wide)
	case i8(r.args[0]):
		return groupSum2[int8, int32](r, wide)
	case i8(r.args[1]):
		return groupSum2[int32, int8](r, wide)
	}
	return groupSum2[int32, int32](r, wide)
}

// groupKey is a tile's keys in place, as a small group table's fold reads them.
func groupKey(r *recordFold, base, m int) ht.TileKey[int8] {
	return ht.TileKey[int8]{K0: r.keys[0].I8[base : base+m], K1: r.keys[len(r.keys)-1].I8[base : base+m], M0: r.mul, Add: r.add}
}

func groupSum1[A int8 | int32](r *recordFold, wide bool) foldFn {
	return func(p *PreparedSelect, _ *worker, w, base, m int, cmp []byte) {
		ht.FoldSum1Groups(p.tabs[w], r.keys[0].I8[base:base+m], r.add, storage.Stored[A](r.args[0], base, m), cmp, r.keyMask, wide)
	}
}

func groupSum2[A, B int8 | int32](r *recordFold, wide [2]bool) foldFn {
	return func(p *PreparedSelect, _ *worker, w, base, m int, cmp []byte) {
		a := r.args
		ht.FoldSum2Groups(p.tabs[w], groupKey(r, base, m), storage.Stored[A](a[0], base, m), storage.Stored[B](a[1], base, m), cmp, r.keyMask, wide)
	}
}

func groupMinMax(r *recordFold) foldFn {
	return func(p *PreparedSelect, _ *worker, w, base, m int, cmp []byte) {
		ht.FoldMinMaxGroups(p.tabs[w], groupKey(r, base, m), r.args[0].I32[base:base+m], cmp, r.keyMask)
	}
}

// byKind is the one of fs instantiated at a column's stored width.
func byKind[F any](k storage.Kind, fs ...F) F { return fs[k] }

// bindRecord binds r's loop at key width K, then each argument's width.
func bindRecord[K vec.Number](r *recordFold, mask string) foldFn {
	return byKind(r.args[0].Kind, record1[K, int8], record1[K, int16], record1[K, int32], record1[K, int64])(r, keyed[K](r), mask)
}

func record1[K, A vec.Number](r *recordFold, key tileKeyFn[K], mask string) foldFn {
	switch r.record {
	case "sum1":
		return sum1(key, stored[A](r.args[0]), mask)
	case "minmax":
		return func(p *PreparedSelect, s *worker, w, base, m int, cmp []byte) {
			tab := p.tabs[w]
			ht.FoldMinMax(tab, key(p, s, tab, base, m, cmp), storage.Stored[A](r.args[0], base, m), cmp, r.keyMask)
		}
	}
	return byKind(r.args[1].Kind, record2[K, A, int8], record2[K, A, int16], record2[K, A, int32], record2[K, A, int64])(r, key)
}

func record2[K, A, B vec.Number](r *recordFold, key tileKeyFn[K]) foldFn {
	if len(r.args) == 2 {
		return func(p *PreparedSelect, s *worker, w, base, m int, cmp []byte) {
			tab, a := p.tabs[w], r.args
			ht.FoldSum2(tab, key(p, s, tab, base, m, cmp), storage.Stored[A](a[0], base, m), storage.Stored[B](a[1], base, m), cmp, r.keyMask)
		}
	}
	return byKind(r.args[2].Kind, sum3[K, A, B, int8], sum3[K, A, B, int16], sum3[K, A, B, int32], sum3[K, A, B, int64])(r, key)
}

func sum3[K, A, B, C vec.Number](r *recordFold, key tileKeyFn[K]) foldFn {
	return func(p *PreparedSelect, s *worker, w, base, m int, cmp []byte) {
		tab, a := p.tabs[w], r.args
		ht.FoldSum3(tab, key(p, s, tab, base, m, cmp), storage.Stored[A](a[0], base, m), storage.Stored[B](a[1], base, m), storage.Stored[C](a[2], base, m), cmp, r.keyMask)
	}
}

// sum1 is FoldSum1's pair loop, handed no mask under mask none.
func sum1[K, A vec.Number](key tileKeyFn[K], arg argFn[A], mask string) foldFn {
	keyMask, maskOf := mask == "key", func(cmp []byte) []byte { return cmp }
	if mask == "none" {
		maskOf = func([]byte) []byte { return nil }
	}
	return func(p *PreparedSelect, s *worker, w, base, m int, cmp []byte) {
		tab := p.tabs[w]
		k := key(p, s, tab, base, m, cmp)
		ht.FoldSum1(tab, k.K1, k.Add, arg(p, s, base, m), maskOf(cmp), keyMask)
	}
}

// tileKeyFn returns a tile's keys: filled the packed keys, nulled those under
// key masking on a hashed table, whose probe needs a key: a rejected lane's
// is ht.NullKey, whose slot is the throwaway record's.
type tileKeyFn[K vec.Number] func(p *PreparedSelect, s *worker, tab *ht.AggTable, base, m int, cmp []byte) ht.TileKey[K]

func filled(p *PreparedSelect, s *worker, _ *ht.AggTable, _, m int, _ []byte) ht.TileKey[int64] {
	keys := p.keys.fill(s.vecs, m, s.keys)
	return ht.TileKey[int64]{K0: keys, K1: keys}
}

func nulled(p *PreparedSelect, s *worker, _ *ht.AggTable, _, m int, cmp []byte) ht.TileKey[int64] {
	keys := s.keys[:m]
	vec.MaskKeysU(p.keys.fill(s.vecs, m, s.keys), cmp, ht.NullKey, keys)
	return ht.TileKey[int64]{K0: keys, K1: keys}
}

// keyed binds where a record fold's keys come from: its key columns read in
// place, or the packed keys.
func keyed[K vec.Number](r *recordFold) tileKeyFn[K] {
	if r.keys == nil {
		return any(tileKeyFn[int64](filled)).(tileKeyFn[K])
	}
	return func(_ *PreparedSelect, _ *worker, _ *ht.AggTable, base, m int, _ []byte) ht.TileKey[K] {
		k0, k1 := storage.Stored[K](r.keys[0], base, m), storage.Stored[K](r.keys[len(r.keys)-1], base, m)
		return ht.TileKey[K]{K0: k0, K1: k1, M0: r.mul, Add: r.add}
	}
}

// argFn returns a tile's values of a fold's argument.
type argFn[A vec.Number] func(p *PreparedSelect, s *worker, base, m int) []A

// stored reads a root column in place.
func stored[A vec.Number](col *storage.Column) argFn[A] {
	return func(_ *PreparedSelect, _ *worker, base, m int) []A { return storage.Stored[A](col, base, m) }
}

// operandOf is x's operand vector.
func operandOf(x *rowExpr) argFn[int64] {
	return func(p *PreparedSelect, s *worker, base, m int) []int64 { return p.operand(s, x, base, m, s.vals) }
}

// lanePass binds the lane passes: resolve, then each of rest over the slots.
func lanePass(keys tileKeyFn[int64], resolve func(*ht.AggTable, []int64, []int32, int, []int64, []byte), lead argFn[int64], acc int, rest []int) foldFn {
	return func(p *PreparedSelect, s *worker, w, base, m int, cmp []byte) {
		tab, slots := p.tabs[w], s.slots[:m]
		resolve(tab, keys(p, s, tab, base, m, cmp).K1, slots, acc, lead(p, s, base, m), cmp)
		for _, i := range rest {
			a := &p.aggs[i]
			a.tile(tab, slots, a.lane, p.operand(s, &a.arg, base, m, s.vals), cmp)
		}
	}
}

// scalarLane folds one aggregate's lane of a tile into its accumulator.
type scalarLane func(p *PreparedSelect, s *worker, acc *int64, base, m int, cmp []byte)

// foldScalar folds the count and each lane's masked reduction into a stripe.
func foldScalar(p *PreparedSelect, s *worker, w, base, m int, cmp []byte) {
	cnt := vec.CountOnes(cmp)
	if cnt == 0 {
		return
	}
	part := p.part[w*p.stride:]
	part[0] += int64(cnt)
	for _, i := range p.fold {
		a := &p.aggs[i]
		a.scalar(p, s, &part[1+a.lane], base, m, cmp)
	}
}

// inlineFold reports whether a scalar plan folds through its root filter's
// kernel (vec.Filter.Fold), value masking as the one loop of the paper's
// Fig. 3, and returns its sum's int8 factors: b nil for sum(a), both nil for
// the count alone. It takes a statement with no edge and no residual whose
// lanes are the count and at most one sum(a) or sum(a*b) over bare int8 root
// columns, and whose root filter compiled to at most two leaves (bindFilter),
// what ValueMaskingFused's price was measured on.
func (c *selectCompile) inlineFold() (a, b []int8, ok bool) {
	q, leaves := c.q, c.p.filter.Leaves()
	if len(q.GroupBy) > 0 || len(q.Edges) > 0 || q.Residual != nil || leaves == 0 || leaves > 2 || c.lanes > 1 {
		return nil, nil, false
	}
	i8 := func(e expr.Expr) []int8 {
		if col, ok := e.(*expr.Col); ok {
			if sc := c.p.root.Column(col.Name); sc != nil && sc.Kind == storage.KindInt8 {
				return sc.I8
			}
		}
		return nil
	}
	for _, g := range q.Aggs {
		if g.Kind == AggCount {
			continue
		}
		l, r, prod := factors(g.Arg)
		if !prod {
			l = g.Arg
		}
		if a = i8(l); g.Kind != AggSum || a == nil {
			return nil, nil, false
		}
		if b = i8(r); prod && b == nil {
			return nil, nil, false
		}
	}
	return a, b, true
}

// bindScalar binds each scalar lane's masked reduction and returns their
// names joined by "+" ("count" for none): min or max over the operand
// vector; a sum over a bare column read in place, over a product of two bare
// columns (both in place, one in place and one from its tile vector, or both
// from tile vectors), or over the operand vector, which a shared argument
// always is.
func (c *selectCompile) bindScalar() string {
	name := "count"
	for j, i := range c.p.fold {
		a := &c.p.aggs[i]
		l, r, prod := factors(a.arg.e)
		in := [...]*storage.Column{c.inPlace(a.arg.e), c.inPlace(l), c.inPlace(r)}
		lane := "sum(i64)"
		switch {
		case a.kind == AggMin:
			a.scalar, lane = func(p *PreparedSelect, s *worker, acc *int64, base, m int, cmp []byte) {
				*acc = min(*acc, vec.MinMasked(p.operand(s, &a.arg, base, m, s.vals), cmp))
			}, "min(i64)"
		case a.kind == AggMax:
			a.scalar, lane = func(p *PreparedSelect, s *worker, acc *int64, base, m int, cmp []byte) {
				*acc = max(*acc, vec.MaxMasked(p.operand(s, &a.arg, base, m, s.vals), cmp))
			}, "max(i64)"
		case !a.shared && prod && in[1] != nil && in[2] != nil:
			a.scalar = byKind(in[1].Kind, storedProd[int8], storedProd[int16], storedProd[int32], storedProd[int64])(in[1], in[2])
			lane = widths("sumprod", "(,", in[1].Kind, in[2].Kind)
		case !a.shared && prod && (in[1] == nil) != (in[2] == nil):
			// One factor in place at its stored width, the other from its tile vector.
			col, x, ws := in[2], rowExpr{e: l, slot: -1}, [2]storage.Kind{storage.KindInt64, storage.KindInt64}
			if in[1] != nil {
				col, x = in[1], rowExpr{e: r, slot: -1}
				ws[0] = col.Kind
			} else {
				ws[1] = col.Kind
			}
			a.mul = []rowExpr{x}
			c.stages = append(c.stages, staged{x: &a.mul[0]})
			a.scalar = byKind(col.Kind, mixedProd[int8], mixedProd[int16], mixedProd[int32], mixedProd[int64])(col, &a.mul[0])
			lane = widths("sumprod", "(,", ws[0], ws[1])
		case !a.shared && prod:
			a.mul = []rowExpr{{e: l, slot: -1}, {e: r, slot: -1}}
			c.stages = append(c.stages, staged{x: &a.mul[0]}, staged{x: &a.mul[1]})
			a.scalar, lane = func(p *PreparedSelect, s *worker, acc *int64, base, m int, cmp []byte) {
				*acc += vec.SumProdMaskedU(p.operand(s, &a.mul[0], base, m, s.keys), p.operand(s, &a.mul[1], base, m, s.vals), cmp)
			}, "sumprod(i64,i64)"
		case !a.shared && in[0] != nil:
			a.scalar = byKind(in[0].Kind, storedSum[int8], storedSum[int16], storedSum[int32], storedSum[int64])(in[0])
			lane = widths("sum", "(", in[0].Kind)
		default:
			a.scalar = sumLane(operandOf(&a.arg))
		}
		if j > 0 {
			lane = name + "+" + lane
		}
		name = lane
	}
	return name
}

// factors splits a product of two bare columns.
func factors(e expr.Expr) (l, r expr.Expr, ok bool) {
	if m, ok := e.(*expr.Arith); ok && m.Op == expr.Mul {
		_, lok := m.L.(*expr.Col)
		_, rok := m.R.(*expr.Col)
		return m.L, m.R, lok && rok
	}
	return nil, nil, false
}

// inPlace is the root column a bare column reference reads in place — one
// the row stage gave no tile vector, which only masking does — or nil.
func (c *selectCompile) inPlace(e expr.Expr) *storage.Column {
	if col, ok := e.(*expr.Col); ok && slot(c.p.cols, col.Name) < 0 {
		return c.p.root.Column(col.Name)
	}
	return nil
}

func sumLane[A vec.Number](arg argFn[A]) scalarLane {
	return func(p *PreparedSelect, s *worker, acc *int64, base, m int, cmp []byte) {
		*acc += vec.SumMaskedU(arg(p, s, base, m), cmp)
	}
}

func storedSum[A vec.Number](col *storage.Column) scalarLane { return sumLane(stored[A](col)) }

func storedProd[A vec.Number](l, r *storage.Column) scalarLane {
	return byKind(r.Kind, storedProd2[A, int8], storedProd2[A, int16], storedProd2[A, int32], storedProd2[A, int64])(l, r)
}

func mixedProd[A vec.Number](col *storage.Column, x *rowExpr) scalarLane {
	return func(p *PreparedSelect, s *worker, acc *int64, base, m int, cmp []byte) {
		*acc += vec.SumProdMaskedU(storage.Stored[A](col, base, m), p.operand(s, x, base, m, s.vals), cmp)
	}
}

func storedProd2[A, B vec.Number](l, r *storage.Column) scalarLane {
	return func(_ *PreparedSelect, _ *worker, acc *int64, base, m int, cmp []byte) {
		*acc += vec.SumProdMaskedU(storage.Stored[A](l, base, m), storage.Stored[B](r, base, m), cmp)
	}
}
