package core

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"time"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// This file is the compositional executor behind the plan synthesizer: any
// single-block SELECT — a filtered root scan, up to maxSelectEdges FK join
// edges, multiple aggregates, GROUP BY, HAVING, ORDER BY and LIMIT —
// compiles into one PreparedSelect, a tile pipeline of vectorized
// primitives. Per vec.TileSize tile:
//
//	root mask      the root predicate fills the byte mask, comparing each
//	               column at its stored width (int8 eight lanes a word); a
//	               disjunction ORs its terms and stops at a saturated tile
//	edges          each join edge resolves parent positions through its
//	               foreign-key index and ANDs its positional bitmap in
//	               (Section III-D), so no hash table is built — or, under
//	               hybrid, narrows the selection vector to the lanes whose
//	               parent qualified
//	tile vectors   every joined-schema column the statement reads but a record
//	               fold's own becomes one []int64 vector: widened in place for
//	               root columns, gathered by position for parent columns
//	row stage      residual and aggregate arguments evaluate over whole
//	               vectors; a residual is one more AND into the mask
//	group keys     GROUP BY keys pack into one int64 (selectkeys.go) — a lone
//	               key column of a key-addressed table is its own key — or,
//	               for a record fold, pack inside its loop
//	fold           the one loop the plan's fold key names, bound at compile
//	               and named in Explain.Kernel (selectfold.go); what still
//	               varies per tile — selection density, compare and widen
//	               widths, dict-coded keys — is counted in Explain.Variants
//
// The cost model picks, per statement at prepare time, how the mask is
// paid for: hybrid compacts the tile to a selection vector and runs the row
// stage over selected lanes only; value masking and key masking stay
// full-width and mask values (to the aggregate's identity) or keys (to the
// group table's throwaway record: by slot arithmetic on a key-addressed
// table, through ht.NullKey on a hashed one). A statement grouped by a
// filtered edge's foreign key may instead aggregate eagerly (Section
// III-E): keyed by the parent's position, with the edge's filter applied
// once per group when the groups are emitted. Nothing on the run path works
// a row at a time, and the emission runs HAVING and the projection a tile of
// groups at a time, unless the output is the table's own (key, sum) pairs
// (pairOut); ORDER BY then sorts the emitted rows and LIMIT cuts them.
//
// Every scan runs on the engine's worker gang. A statement the cost model
// compiled scans on all the engine's workers when their partials — stripes of
// scalar lanes, or key-addressed group tables of sums and counts — merge
// exactly, so the answer is the same at every worker count. The rest —
// hashed tables, tables with min or max lanes, and every forced plan — scan
// on one worker.

// maxSelectEdges bounds the join edges a synthesized plan may carry.
const maxSelectEdges = 4

// AggKind is an aggregate function of a synthesized plan.
type AggKind int

// Aggregate kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling.
func (k AggKind) String() string {
	return [...]string{"sum", "count", "avg", "min", "max"}[k]
}

// SelectEdge is one FK join edge: the child's FK column maps each child row
// to a parent row through the registered foreign-key index. Src names the
// child side: -1 for the root table, otherwise the index of the earlier
// edge whose parent owns the FK column (snowflake chains).
type SelectEdge struct {
	Src    int
	FK     string
	Parent string
	PK     string
	Filter expr.Expr // optional parent-side predicate
}

// SelectAgg is one aggregate over the joined row.
type SelectAgg struct {
	Kind AggKind
	Arg  expr.Expr // nil for count(*)
	As   string
}

// SelectProj is one output column, evaluated over the aggregate output
// schema (group keys then aggregate aliases).
type SelectProj struct {
	Expr expr.Expr
	As   string
}

// Select is the specification of a synthesized single-block SELECT. Filter
// must be in negation normal form (expr.NNF) so a disjunction's terms sit at
// the top level, where a saturated tile skips the rest. All expression trees
// must be owned by the spec: Prepare binds them in place.
type Select struct {
	Root     string
	Filter   expr.Expr // root-table predicate
	Edges    []SelectEdge
	Residual expr.Expr // evaluated over the joined row
	GroupBy  []string
	Aggs     []SelectAgg
	Having   expr.Expr // evaluated over the aggregate output row
	Project  []SelectProj
	Order    []plan.SortKey // ORDER BY keys, each naming an output column
	Limit    int            // rows kept after the sort; 0 keeps them all
}

// SelectResult is a generic plan's answer, owned by the plan and overwritten
// by its next run: row i is Flat[i*w:(i+1)*w] for w = len(Fields). No row
// headers are built; the statement cache serves and encodes from Flat.
type SelectResult struct {
	Fields expr.Fields
	Flat   []int64
}

// boundEdge is a compiled join edge.
type boundEdge struct {
	src    int
	idx    *storage.FKIndex
	parent *storage.Table
	filter expr.Expr      // bound to parent
	bm     *bitmap.Bitmap // parent-side qualifying positions; nil without filter
	used   bool           // a filter, a column or a later edge needs its positions
}

// tileCol is one joined-schema column the row stage reads through a tile
// vector; its index in PreparedSelect.cols is the vector's slot.
type tileCol struct {
	name string
	src  int // -1 root, else edge index
	col  *storage.Column
}

// slot is the tile vector holding the named column, or -1.
func slot(cols []tileCol, name string) int {
	for i := range cols {
		if cols[i].name == name {
			return i
		}
	}
	return -1
}

// stageSource is the expr.Source of the row stage: a column reads its tile
// vector if the compile gave it one, else the root table's column — which the
// compile allows only where the lanes are the tile's rows (masking). One
// word, so binding through it allocates nothing.
type stageSource struct{ p *PreparedSelect }

// Leaf implements expr.Source.
func (s stageSource) Leaf(name string) (expr.Leaf, error) {
	if i := slot(s.p.cols, name); i >= 0 {
		return expr.Leaf{Slot: i, Dict: s.p.cols[i].col.Dict}, nil
	}
	return expr.Columns(s.p.root).Leaf(name)
}

// rowExpr is an expression of the row stage (the residual or an aggregate
// argument), bound through stageSource, with where a bare column's values
// already sit.
type rowExpr struct {
	e    expr.Expr
	slot int // the tile vector holding e when e is a bare column with one, else -1
	// merged: e is an aggregate argument structurally equal to the one folded
	// just before it, which left the operand vector both fold from (access
	// merging, Section III-C).
	merged bool
}

// selAgg is one aggregate with its accumulator lane.
type selAgg struct {
	kind AggKind
	arg  rowExpr // arg.e == nil for count(*)
	lane int     // accumulator lane; -1 for count, which reads the shared tuple count
	// shared: another lane's argument is equal, and both fold from one
	// operand vector (mergeOperands).
	shared bool
	// Bound by bindFold: a scalar lane's masked reduction (mul: the factors it
	// reads from tile vectors), or a lane pass over resolved slots.
	scalar scalarLane
	mul    []rowExpr
	tile   func(t *ht.AggTable, slots []int32, acc int, vals []int64, cmp []byte)
}

// identity is what a rejected lane contributes under value masking, and
// what the lane starts from.
func (a *selAgg) identity() int64 {
	switch a.kind {
	case AggMin:
		return vec.MinIdentity
	case AggMax:
		return vec.MaxIdentity
	}
	return 0
}

// final turns the lane value v and the group's tuple count into the
// aggregate's answer. An aggregate over no tuples is 0 (only a scalar
// statement can get there).
func (a *selAgg) final(v, cnt int64) int64 {
	switch {
	case a.kind == AggCount:
		return cnt
	case cnt == 0:
		return 0
	case a.kind == AggAvg:
		return v * storage.DecimalOne / cnt
	}
	return v
}

// PreparedSelect is a compiled statement, owned by whoever prepared it: the
// tile pipeline described at the top of this file with its technique fixed.
// It owns what must outlive a run — the group table, the edge bitmaps, the
// result buffer — and borrows its workers' scratch from the engine, so a
// warm run allocates nothing. Runs serialize on the engine's execution lock.
type PreparedSelect struct {
	e         *Engine
	nw        int     // workers the scans run on
	ex        Explain // the compile's record, which every run reports
	fields    expr.Fields
	groupEmit // the emission's (order key, slot) pairs and their sorter

	spec  Select
	root  *storage.Table // immutable once registered: its row count is the scan's
	edges []boundEdge

	tech     Technique
	cols     []tileCol
	residual rowExpr
	aggs     []selAgg
	fold     []int // the aggregates with a lane, equal arguments adjacent
	// The tile's halves, bound at compile: compact or stage, and the loop the
	// fold key names. fill: it reads a mask no filter writes, all ones.
	front    func(p *PreparedSelect, s *worker, base, n int) int
	foldTile foldFn
	fill     bool
	// inline: the fold computes the predicate itself (fusedI8), so the tile
	// evaluates no filter and builds no mask.
	inline bool
	// pairOut: the statement is the classic group-by — one packed key column,
	// one sum or count(*), no HAVING, and the projection key, aggregate under
	// their own names — so its answer is the table's (key, lane 0) pairs
	// (emitPairs).
	pairOut bool

	// Grouped statements: key packing and one group table per worker, which
	// the run merges into the first, tab. Scalar statements (tab == nil)
	// accumulate into part, one stripe per worker — the tuple count, then one
	// lane per aggregate, padded to whole cache lines — and acc is the first
	// stripe's lanes, which the merge folds the others into.
	keys   groupKeys
	tabs   []*ht.AggTable
	tab    *ht.AggTable
	acc    []int64
	part   []int64
	stride int

	// Eager aggregation (nil eager otherwise): a group is a parent position,
	// emitted keyed by pk if its bit in the edge's bitmap eager is set.
	eager     *bitmap.Bitmap
	pk        *storage.Column
	pkAscends bool

	outFields expr.Fields // group keys then aggregate aliases: HAVING's and the projection's schema
	// proj maps each output column to its emission vector: the outFields
	// column it copies, or the one past them the tile walker evaluates it into.
	proj []int
	res  SelectResult

	// ORDER BY and LIMIT (orderRows): order is the output columns the rows
	// sort by, nil when the statement has neither; the sort
	// permutes row indexes in perm and gathers the rows it keeps into sorted.
	order  []orderKey
	perm   []int32
	sorted []int64

	// The emission's tile, bound per run to worker 0's tile vectors: one
	// vector per outFields column, then one per output column.
	out [][]int64

	// Kernels, bound once so a run builds no closures. kEdge reads the edge
	// the run is currently on.
	kMain, kEdge kernelFn
	curEdge      *boundEdge

	// adopted: a successor took over the plan's buffers (Engine.Reprepare),
	// so it runs no more.
	adopted bool
}

// errAdopted is what a plan whose buffers a successor adopted answers.
var errAdopted = errors.New("core: plan superseded: a successor adopted its buffers")

// RunContext executes the plan under the context's deadline: the scan polls
// it at morsel granularity, so cancellation stops every worker within one
// morsel and returns ctx's error with the plan's buffers intact for the next
// run. The result aliases plan-owned buffers and is overwritten by the next
// run.
func (p *PreparedSelect) RunContext(ctx context.Context) (*SelectResult, Explain, error) {
	p.e.execMu.Lock()
	defer p.e.execMu.Unlock()
	if p.adopted {
		return nil, Explain{}, errAdopted
	}
	err := p.run(ctx)
	// The engine's scratch is shared by every plan: a canceled scan's
	// counters are drained too, so they cannot surface in another plan.
	p.sumVariants()
	ex := p.ex
	p.settle()
	if err != nil {
		return nil, Explain{}, err
	}
	return &p.res, ex, nil
}

func (p *PreparedSelect) run(ctx context.Context) error {
	start := time.Now()
	// Phase 1: each filtered edge's positional bitmap over its parent.
	for i := range p.edges {
		be := &p.edges[i]
		if be.bm == nil {
			continue
		}
		be.bm.Reset(be.parent.Rows())
		p.curEdge = be
		p.scan(ctx, be.parent.Rows(), p.kEdge)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// Phase 2: the main scan through the tile pipeline.
	var grows0 uint64
	if p.tab != nil {
		for _, tab := range p.tabs {
			tab.Reset()
		}
		p.keys.reset()
		grows0 = growsSum(p.tabs)
	} else {
		for w := 0; w < len(p.part); w += p.stride {
			p.part[w] = 0
			for _, i := range p.fold {
				p.part[w+1+p.aggs[i].lane] = p.aggs[i].identity()
			}
		}
	}
	p.scan(ctx, p.root.Rows(), p.kMain)
	p.ex.ScanTime = time.Since(start)
	if err := ctx.Err(); err != nil {
		return err
	}

	// Emission: groups in key order through HAVING and the projection into
	// the flat result.
	start = time.Now()
	p.out = p.e.scratch[0].vecs[:len(p.outFields)+len(p.proj)]
	p.res.Flat = p.res.Flat[:0]
	if p.tab == nil {
		p.mergeParts()
		p.emitRows(1)
	} else {
		p.ex.HTGrows = int(growsSum(p.tabs) - grows0)
		for _, tab := range p.tabs[1:] {
			p.tab.MergeFrom(tab) // key-addressed, one domain: record-wise addition
		}
		if p.pairOut {
			p.emitPairs()
		} else {
			p.emitGroups()
		}
	}
	p.orderRows()
	p.ex.MergeTime = time.Since(start)
	return nil
}

// orderKey is one output column the result rows sort by.
type orderKey struct {
	col  int
	desc bool
}

// orderRows sorts the result rows when the plan has a sort order, and cuts
// them at the statement's LIMIT. The rows kept are gathered through the
// sorted permutation into the plan's sort buffer and copied back, so the
// result stays in its own buffer (a classic group-by's is its pairs).
func (p *PreparedSelect) orderRows() {
	w := len(p.proj)
	n := len(p.res.Flat) / w
	k := n
	if l := p.spec.Limit; l > 0 {
		k = min(n, l)
	}
	if p.order != nil && n > 1 {
		p.perm = p.perm[:0]
		for i := range int32(n) {
			p.perm = append(p.perm, i)
		}
		slices.SortFunc(p.perm, p.compareRows)
		p.sorted = slices.Grow(p.sorted[:0], k*w)[:k*w]
		for r, i := range p.perm[:k] {
			copy(p.sorted[r*w:(r+1)*w], p.res.Flat[int(i)*w:])
		}
		copy(p.res.Flat, p.sorted)
	}
	p.res.Flat = p.res.Flat[:k*w]
}

// compareRows orders result rows a and b by the plan's sort order.
func (p *PreparedSelect) compareRows(a, b int32) int {
	w := len(p.proj)
	ra, rb := p.res.Flat[int(a)*w:][:w], p.res.Flat[int(b)*w:][:w]
	for _, k := range p.order {
		if c := cmp.Compare(ra[k.col], rb[k.col]); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// mergeParts folds the other workers' stripes into the first by aggregate
// kind — counts and sums add, min and max fold — and writes each aggregate's
// answer into the output vectors. Every fold is exact and commutative, so the
// answer does not depend on which worker claimed which morsel.
func (p *PreparedSelect) mergeParts() {
	for w := p.stride; w < len(p.part); w += p.stride {
		p.part[0] += p.part[w]
		for _, i := range p.fold {
			a := &p.aggs[i]
			acc, v := &p.acc[a.lane], p.part[w+1+a.lane]
			switch a.kind {
			case AggMin:
				*acc = min(*acc, v)
			case AggMax:
				*acc = max(*acc, v)
			default:
				*acc += v
			}
		}
	}
	for i := range p.aggs {
		a, v := &p.aggs[i], int64(0)
		if a.lane >= 0 {
			v = p.acc[a.lane]
		}
		p.out[i][0] = a.final(v, p.part[0])
	}
}

// emitGroups emits the merged table's groups in key order, a tile at a time.
// Value masking reaches groups only rejected tuples touched; their count
// stays zero and keeps them out of the walk. An eager plan keeps the groups
// whose parent passed its edge's filter. A key-addressed table's slots are
// in key order — for an eager plan, when the parent's key ascends — and any
// other walk sorts (order key, slot) pairs first.
func (p *PreparedSelect) emitGroups() {
	tab, bm, slots, d := p.tab, p.eager, p.e.scratch[0].slots, p.ex.DenseDomain
	if d > 0 && (bm == nil || p.pkAscends) {
		for base := 0; base < d; base += vec.TileSize {
			k := 0
			for slot := base; slot < min(base+vec.TileSize, d); slot++ {
				slots[k] = int32(slot)
				if tab.Count(slot) > 0 && (bm == nil || bm.Test(slot)) {
					k++
				}
			}
			p.emitTile(slots[:k])
		}
		return
	}
	p.keys.rank(&p.groupEmit)
	p.reset()
	for slot := tab.NextLive(0); slot >= 0; slot = tab.NextLive(slot + 1) {
		switch {
		case bm != nil && !bm.Test(slot):
		case bm != nil:
			p.add(p.pk.Get(slot), int64(slot))
		default:
			p.add(p.keys.sortKey(tab.Key(slot)), int64(slot))
		}
	}
	p.sortPairs()
	for i := 0; i < len(p.pairs); i += 2 * vec.TileSize {
		k := 0
		for j := i + 1; j < min(i+2*vec.TileSize, len(p.pairs)); j += 2 {
			slots[k] = int32(p.pairs[j])
			k++
		}
		p.emitTile(slots[:k])
	}
}

// emitPairs is the classic group-by's emission: the table appends its groups
// as (key, lane 0) pairs — the sum, or the count on a table without lanes —
// which are the result rows once a packed key is decoded (a key addressing
// the table by value already is its column's value) and, on a hashed table,
// sorted.
func (p *PreparedSelect) emitPairs() {
	p.pairs = p.tab.AppendGroups(p.pairs[:0])
	if lo := p.keys.lo[0]; !p.keys.byValue && lo != 0 {
		for i := 0; i < len(p.pairs); i += 2 {
			p.pairs[i] += lo
		}
	}
	if p.ex.DenseDomain == 0 {
		p.sortPairs()
	}
	p.res.Flat = p.pairs
}

// emitTile writes the key columns and aggregate answers of the groups in
// slots into the output vectors and emits them.
func (p *PreparedSelect) emitTile(slots []int32) {
	tab, nk := p.tab, len(p.spec.GroupBy)
	if p.eager != nil {
		p.pk.GatherInto(slots, p.out[0])
	} else {
		for r, s := range slots {
			key := int64(s) // a key-addressed table's slot is its packed key
			if p.ex.DenseDomain == 0 {
				key = tab.Key(int(s))
			}
			p.keys.decode(key, p.out, r)
		}
	}
	for i := range p.aggs {
		a, out := &p.aggs[i], p.out[nk+i]
		for r, s := range slots {
			v := int64(0)
			if a.lane >= 0 {
				v = tab.Acc(int(s), a.lane)
			}
			out[r] = a.final(v, tab.Count(int(s)))
		}
	}
	p.emitRows(len(slots))
}

// emitRows passes the first n rows of the output vectors through HAVING and
// the projection, both on the tile walker, and appends the projected rows to
// the result. A bare output column is a copy of its vector.
func (p *PreparedSelect) emitRows(n int) {
	s, ev := p.e.scratch[0], p.e.emit
	if p.spec.Having != nil {
		// The rows HAVING keeps move to the front of every vector.
		ev.EvalBool(p.spec.Having, expr.Tile{N: n, Vecs: p.out}, s.cmp)
		n, _ = vec.SelFromCmpAdaptive(s.cmp[:n], s.idx)
		for _, v := range p.out[:len(p.outFields)] {
			for j, l := range s.idx[:n] {
				v[j] = v[l]
			}
		}
	}
	w, base := len(p.proj), len(p.res.Flat)
	p.res.Flat = slices.Grow(p.res.Flat, n*w)[:base+n*w]
	dst := p.res.Flat[base:]
	for j, i := range p.proj {
		if i >= len(p.outFields) {
			ev.EvalInt(p.spec.Project[j].Expr, expr.Tile{N: n, Vecs: p.out}, p.out[i])
		}
		for r, v := range p.out[i][:n] {
			dst[r*w+j] = v
		}
	}
}

// edgeKernel evaluates the current edge's parent-side filter into its
// positional bitmap. Workers share the one bitmap: morsels are multiples of 64
// rows, so no two of them write the same word.
func (p *PreparedSelect) edgeKernel(w, base, length int) {
	s, be := p.e.scratch[w], p.curEdge
	for tb := 0; tb < length; tb += vec.TileSize {
		b, n := base+tb, min(vec.TileSize, length-tb)
		s.ev.EvalBool(be.filter, expr.Rows(b, n), s.cmp)
		be.bm.SetFromCmp(b, s.cmp[:n])
	}
}

// mainKernel runs the tile pipeline over one morsel.
func (p *PreparedSelect) mainKernel(w, base, length int) {
	s := p.e.scratch[w]
	for tb := 0; tb < length; tb += vec.TileSize {
		p.tile(s, w, base+tb, min(vec.TileSize, length-tb))
	}
}

// tile takes rows [base, base+n) from root mask to worker w's accumulator
// lanes: its group table, or for a scalar statement its stripe. s is worker
// w's scratch.
func (p *PreparedSelect) tile(s *worker, w, base, n int) {
	switch {
	case p.inline:
		p.foldTile(p, s, w, base, n, nil)
		return
	case p.spec.Filter != nil:
		s.ev.EvalBool(p.spec.Filter, expr.Rows(base, n), s.cmp[:n])
	case p.fill:
		vec.Fill(s.cmp[:n], 1)
	}
	if m := p.front(p, s, base, n); m > 0 {
		p.foldTile(p, s, w, base, m, s.cmp[:m])
	}
}

// stage is masking's front half: the lanes are the tile's rows, which the
// edges and the residual AND into the mask once the vectors are filled.
func (p *PreparedSelect) stage(s *worker, base, n int) int {
	p.resolveEdges(s, base, n, nil)
	for c := range p.cols {
		tc := &p.cols[c]
		if tc.src < 0 {
			tc.col.WidenInto(base, n, s.vecs[c])
			s.ctr.Widen[int(tc.col.Kind)]++
		} else {
			tc.col.GatherInto(s.pos[tc.src][:n], s.vecs[c])
		}
	}
	if x := &p.residual; x.e != nil {
		s.ev.EvalBool(x.e, expr.Tile{Base: base, N: n, Vecs: s.vecs}, s.tcmp)
		vec.And(s.cmp[:n], s.tcmp[:n])
	}
	return n
}

// resolveEdges fills the lane-indexed parent positions of the used edges —
// for the lanes of sel, or for all n when sel is nil — and applies every
// filtered edge's bitmap: ANDed into the mask, or narrowing sel to the lanes
// whose parent qualified, which it returns. An edge off the root reads its
// positions straight from the foreign-key index.
func (p *PreparedSelect) resolveEdges(s *worker, base, n int, sel []int32) []int32 {
	for i := range p.edges {
		be := &p.edges[i]
		if !be.used {
			continue
		}
		var pos []int32
		if be.src < 0 {
			pos = be.idx.Pos[base : base+n]
		} else {
			pos = s.posBuf[i][:n]
			src, fk := s.pos[be.src], be.idx.Pos
			if sel == nil {
				for j := range pos {
					pos[j] = fk[src[j]]
				}
			}
			for _, j := range sel {
				pos[j] = fk[src[j]]
			}
		}
		s.pos[i] = pos
		switch {
		case be.bm == nil:
		case sel == nil:
			be.bm.AndGather(pos, s.cmp[:n])
		default:
			sel = sel[:be.bm.SelectGather(pos, sel)]
		}
	}
	return sel
}

// allLanes is a tile's selection vector when every lane is selected.
var allLanes = func() (sel [vec.TileSize]int32) {
	for j := range sel {
		sel[j] = int32(j)
	}
	return sel
}()

// compact is the hybrid technique's front half: the root mask becomes a
// selection vector, which the edges resolve parent positions for and their
// bitmaps narrow, and every tile vector is gathered compacted, so the lanes
// of the row stage are exactly the rows that passed. It returns the lane
// count; the mask is all ones over them afterwards.
func (p *PreparedSelect) compact(s *worker, base, n int) int {
	k := n
	if p.spec.Filter != nil {
		var d vec.Density
		k, d = vec.SelFromCmpAdaptive(s.cmp[:n], s.idx)
		s.ctr.CountSel(d)
	} else {
		copy(s.idx[:n], allLanes[:n])
	}
	if k = len(p.resolveEdges(s, base, n, s.idx[:k])); k == 0 {
		return 0
	}
	sel, gpos := s.idx[:k], s.gpos[:k]
	for c, at := 0, -2; c < len(p.cols); c++ {
		tc := &p.cols[c]
		if tc.src != at { // cols are grouped by source: one position vector each
			if at = tc.src; at < 0 {
				for j, l := range sel {
					gpos[j] = int32(base) + l
				}
			} else {
				src := s.pos[at]
				for j, l := range sel {
					gpos[j] = src[l]
				}
			}
		}
		tc.col.GatherInto(gpos, s.vecs[c])
	}
	if x := &p.residual; x.e != nil {
		s.ev.EvalBool(x.e, expr.Tile{N: k, Vecs: s.vecs}, s.tcmp)
		k2, _ := vec.SelFromCmpAdaptive(s.tcmp[:k], s.idx)
		if k2 < k {
			keep := s.idx[:k2]
			for c := range p.cols {
				v := s.vecs[c]
				for j, l := range keep {
					v[j] = v[l]
				}
			}
			k = k2
		}
	}
	vec.Fill(s.cmp[:k], 1)
	return k
}

// operand returns x's value for each of the m lanes: its tile vector, or
// buf after evaluating into it — unless the aggregate before already did.
func (p *PreparedSelect) operand(s *worker, x *rowExpr, base, m int, buf []int64) []int64 {
	switch {
	case x.slot >= 0:
		return s.vecs[x.slot][:m]
	case !x.merged:
		s.ev.EvalInt(x.e, expr.Tile{Base: base, N: m, Vecs: s.vecs}, buf)
	}
	return buf[:m]
}
