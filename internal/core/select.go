package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// This file is the compositional executor behind the plan synthesizer: any
// single-block SELECT — a filtered root scan, up to maxSelectEdges FK join
// edges, multiple aggregates, GROUP BY, and HAVING — compiles into one
// PreparedSelect. Each join edge resolves build rows positionally
// through the registered foreign-key index and applies its build-side
// predicate as a positional bitmap (Section III-D), so no hash table is
// built. Root disjunctions choose, via the cost model, between fused
// branchless evaluation and term-at-a-time positional-bitmap OR-combination.

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
// must be in negation normal form (expr.NNF) so the disjunction planner
// sees the top-level OR terms. All expression trees must be owned by the
// spec: Prepare binds them in place.
type Select struct {
	Root     string
	Filter   expr.Expr // root-table predicate
	Edges    []SelectEdge
	Residual expr.Expr // evaluated over the joined row
	GroupBy  []string
	Aggs     []SelectAgg
	Having   expr.Expr // evaluated over the aggregate output row
	Project  []SelectProj
}

// Clone deep-copies the spec's expression trees. Bind mutates expression
// nodes in place, so every engine a statement is prepared on needs a
// private tree; sharing one would leave all of them reading whichever
// engine's columns bound last.
func (q Select) Clone() Select {
	q.Filter = expr.Clone(q.Filter)
	q.Residual = expr.Clone(q.Residual)
	q.Having = expr.Clone(q.Having)
	q.Edges = append([]SelectEdge(nil), q.Edges...)
	for i := range q.Edges {
		q.Edges[i].Filter = expr.Clone(q.Edges[i].Filter)
	}
	q.Aggs = append([]SelectAgg(nil), q.Aggs...)
	for i := range q.Aggs {
		q.Aggs[i].Arg = expr.Clone(q.Aggs[i].Arg)
	}
	q.Project = append([]SelectProj(nil), q.Project...)
	for i := range q.Project {
		q.Project[i].Expr = expr.Clone(q.Project[i].Expr)
	}
	return q
}

// Tables lists the tables a plan for the spec reads: the root — the
// driving table, whose shard layout a fan-out follows — then each edge's
// parent.
func (q Select) Tables() []string {
	tabs := []string{q.Root}
	for _, e := range q.Edges {
		tabs = append(tabs, e.Parent)
	}
	return tabs
}

// OutField describes one output (or intermediate) column of a synthesized
// plan.
type OutField struct {
	Name string
	Dict *storage.Dict
	Log  storage.Logical
}

// fieldSchema implements expr.SchemaSource over OutFields.
type fieldSchema []OutField

// Resolve implements expr.SchemaSource.
func (f fieldSchema) Resolve(name string) (int, *storage.Dict, bool) {
	for i, fd := range f {
		if fd.Name == name {
			return i, fd.Dict, true
		}
	}
	return 0, nil, false
}

func (f fieldSchema) index(name string) int {
	for i, fd := range f {
		if fd.Name == name {
			return i
		}
	}
	return -1
}

// SelectResult is a materialized synthesized-plan answer.
type SelectResult struct {
	Fields []OutField
	Rows   [][]int64
}

// boundEdge is a compiled join edge.
type boundEdge struct {
	src    int
	idx    *storage.FKIndex
	parent *storage.Table
	filter expr.Expr      // bound to parent
	bm     *bitmap.Bitmap // parent-side qualifying positions; nil without filter
}

// gatherField is one joined-schema column the row stage actually reads.
type gatherField struct {
	at  int // index in the joined row buffer
	src int // -1 root, else edge index
	col *storage.Column
}

type accSt struct {
	sum, cnt, mn, mx int64
}

func (a *accSt) add(v int64) {
	a.sum += v
	a.cnt++
	if v < a.mn {
		a.mn = v
	}
	if v > a.mx {
		a.mx = v
	}
}

func (a *accSt) finalize(k AggKind) int64 {
	switch k {
	case AggSum:
		return a.sum
	case AggCount:
		return a.cnt
	case AggAvg:
		if a.cnt == 0 {
			return 0
		}
		return a.sum * storage.DecimalOne / a.cnt
	case AggMin:
		if a.cnt == 0 {
			return 0
		}
		return a.mn
	default: // AggMax
		if a.cnt == 0 {
			return 0
		}
		return a.mx
	}
}

type selGroup struct {
	keys []int64
	accs []accSt
}

// PreparedSelect is a compiled synthesized plan. It executes
// single-threaded over the engine's column store (the gang and shard
// fan-out machinery of the hand-specialized shapes does not apply here) and
// reuses its buffers across runs; RunContext is safe for concurrent use.
type PreparedSelect struct {
	e    *Engine
	spec Select

	root  *storage.Table
	edges []boundEdge

	strategy cost.DisjunctionStrategy
	terms    []expr.Expr // top-level OR terms of the bound root filter

	rowFields fieldSchema
	gather    []gatherField
	groupAt   []int // joined-row index per group key
	outFields fieldSchema
	resFields []OutField

	ex Explain

	// run-owned, guarded by mu
	mu      chan struct{} // 1-slot semaphore; also the buffer guard
	rootBM  *bitmap.Bitmap
	cmp     []byte
	tcmp    []byte
	pos     [][]int32
	rowBuf  []int64
	keyBuf  []byte
	evLocal *expr.Evaluator
}

// PrepareSelect compiles a synthesized single-block SELECT into a reusable
// plan: it resolves tables and foreign-key indexes, binds every expression
// tree, samples term selectivities, and fixes the disjunction strategy via
// the cost model.
func (e *Engine) PrepareSelect(q Select) (*PreparedSelect, error) {
	if len(q.Edges) > maxSelectEdges {
		return nil, fmt.Errorf("core: %d join edges unsupported (max %d)", len(q.Edges), maxSelectEdges)
	}
	if len(q.Aggs) == 0 {
		return nil, fmt.Errorf("core: select without aggregates")
	}
	root := e.DB.Table(q.Root)
	if root == nil {
		return nil, errNoTable(q.Root)
	}
	p := &PreparedSelect{e: e, spec: q, root: root, mu: make(chan struct{}, 1)}

	// Joined-row schema: root columns, then each edge's parent columns.
	addCols := func(t *storage.Table) {
		for _, c := range t.Columns {
			p.rowFields = append(p.rowFields, OutField{Name: c.Name, Dict: c.Dict, Log: c.Log})
		}
	}
	addCols(root)
	for i, ed := range q.Edges {
		childName := q.Root
		if ed.Src >= 0 {
			if ed.Src >= i {
				return nil, fmt.Errorf("core: edge %d references later edge %d", i, ed.Src)
			}
			childName = q.Edges[ed.Src].Parent
		}
		idx := e.DB.FK(childName, ed.FK, ed.Parent, ed.PK)
		if idx == nil {
			return nil, fmt.Errorf("core: no foreign key %s.%s -> %s.%s", childName, ed.FK, ed.Parent, ed.PK)
		}
		parent := e.DB.Table(ed.Parent)
		if parent == nil {
			return nil, errNoTable(ed.Parent)
		}
		be := boundEdge{src: ed.Src, idx: idx, parent: parent, filter: ed.Filter}
		if be.filter != nil {
			if err := expr.Bind(be.filter, parent); err != nil {
				return nil, err
			}
			be.bm = bitmap.New(parent.Rows())
		}
		p.edges = append(p.edges, be)
		addCols(parent)
	}

	// Root filter: bind, expose OR terms, choose the disjunction strategy.
	params := e.Params.ForWorkers(1)
	// PlanCached is baked in like the other Prepared* types: every run of
	// this plan replays the prepare-time decision; the plan cache's first
	// execution resets it to false.
	p.ex = Explain{Technique: TechDataCentric, Workers: 1, PlanCached: true, Costs: map[string]float64{}}
	if len(p.edges) > 0 {
		p.ex.Technique = TechPositionalBitmap
	}
	for i, be := range p.edges {
		if be.bm != nil {
			p.ex.Costs[fmt.Sprintf("edge%d-bitmap-bytes", i)] = float64(be.bm.Bytes())
			p.ex.HTBytes += be.bm.Bytes()
		}
	}
	rows := root.Rows()
	if q.Filter != nil {
		if err := expr.Bind(q.Filter, root); err != nil {
			return nil, err
		}
		sel, cached := e.selectivity(q.Root, rows, q.Filter, 16384)
		p.ex.Selectivity, p.ex.StatsCached = sel, cached
		p.ex.CompCost = expr.CompCost(q.Filter, params)
		p.terms = expr.OrTerms(q.Filter)
		if len(p.terms) > 1 {
			termComp := make([]float64, len(p.terms))
			termSel := make([]float64, len(p.terms))
			for i, t := range p.terms {
				termComp[i] = expr.CompCost(t, params)
				termSel[i], _ = e.selectivity(q.Root, rows, t, 16384)
			}
			var fused, bm float64
			p.strategy, fused, bm = params.ChooseDisjunction(rows, termComp, termSel)
			p.ex.Costs["disjunction-fused"] = fused
			p.ex.Costs["disjunction-bitmap"] = bm
			if p.strategy == cost.DisjBitmap {
				p.rootBM = bitmap.New(rows)
			}
		}
	} else {
		p.ex.Selectivity = 1
	}

	// Row stage: bind residual, group keys, and aggregate arguments against
	// the joined schema, then plan the per-row gather of referenced columns.
	needed := map[string]bool{}
	noteCols := func(ex expr.Expr) {
		for _, c := range expr.Cols(ex) {
			needed[c] = true
		}
	}
	if q.Residual != nil {
		if err := expr.BindRow(q.Residual, p.rowFields); err != nil {
			return nil, err
		}
		noteCols(q.Residual)
	}
	for _, g := range q.GroupBy {
		needed[g] = true
	}
	for i := range q.Aggs {
		if q.Aggs[i].Arg != nil {
			if err := expr.BindRow(q.Aggs[i].Arg, p.rowFields); err != nil {
				return nil, err
			}
			noteCols(q.Aggs[i].Arg)
		}
	}
	colAt := func(fieldIdx int) (int, *storage.Column, error) {
		// Recover (source, column) from the joined-schema position.
		off := 0
		if fieldIdx < len(root.Columns) {
			return -1, root.Columns[fieldIdx], nil
		}
		off = len(root.Columns)
		for i, be := range p.edges {
			if fieldIdx < off+len(be.parent.Columns) {
				return i, be.parent.Columns[fieldIdx-off], nil
			}
			off += len(be.parent.Columns)
		}
		return 0, nil, fmt.Errorf("core: joined field %d out of range", fieldIdx)
	}
	for name := range needed {
		at := p.rowFields.index(name)
		if at < 0 {
			return nil, errNoColumn(q.Root, name)
		}
		src, col, err := colAt(at)
		if err != nil {
			return nil, err
		}
		p.gather = append(p.gather, gatherField{at: at, src: src, col: col})
	}
	sort.Slice(p.gather, func(i, j int) bool { return p.gather[i].at < p.gather[j].at })

	// Aggregate output schema: group keys (with their dictionaries), then
	// aggregate aliases.
	for _, g := range q.GroupBy {
		at := p.rowFields.index(g)
		if at < 0 {
			return nil, errNoColumn(q.Root, g)
		}
		p.groupAt = append(p.groupAt, at)
		p.outFields = append(p.outFields, p.rowFields[at])
	}
	for _, a := range q.Aggs {
		p.outFields = append(p.outFields, OutField{Name: a.As, Log: storage.LogInt})
	}
	if q.Having != nil {
		if err := expr.BindRow(q.Having, p.outFields); err != nil {
			return nil, err
		}
	}
	if len(q.Project) == 0 {
		return nil, fmt.Errorf("core: select without projection")
	}
	for i := range q.Project {
		if err := expr.BindRow(q.Project[i].Expr, p.outFields); err != nil {
			return nil, err
		}
		f := OutField{Name: q.Project[i].As, Log: storage.LogInt}
		if c, ok := q.Project[i].Expr.(*expr.Col); ok {
			if at := p.outFields.index(c.Name); at >= 0 {
				f.Dict, f.Log = p.outFields[at].Dict, p.outFields[at].Log
			}
		}
		p.resFields = append(p.resFields, f)
	}

	// Group-count estimate for Explain (first key only; joint cardinality
	// sampling would need the joined row).
	if len(q.GroupBy) > 0 && root.Column(q.GroupBy[0]) != nil {
		key := expr.NewCol(q.GroupBy[0])
		if err := expr.Bind(key, root); err == nil {
			g, _ := e.groupCount(q.Root, rows, key, 16384)
			p.ex.Groups = g
		}
	}

	p.cmp = make([]byte, vec.TileSize)
	p.tcmp = make([]byte, vec.TileSize)
	p.pos = make([][]int32, len(p.edges))
	for i := range p.pos {
		p.pos[i] = make([]int32, vec.TileSize)
	}
	p.rowBuf = make([]int64, len(p.rowFields))
	p.evLocal = expr.NewEvaluator()
	return p, nil
}

// Fields returns the prepared plan's output header.
func (p *PreparedSelect) Fields() []OutField { return p.resFields }

// Mergeable reports false: HAVING, avg/min/max, and multi-key grouping are
// not distributive over partials the way the hand-specialized shapes' sums
// are, so a generic plan must see every row of its tables.
func (p *PreparedSelect) Mergeable() bool { return false }

// RunPartial implements Plan.
func (p *PreparedSelect) RunPartial(ctx context.Context) (Partial, Explain, error) {
	res, ex, err := p.RunContext(ctx)
	return Partial{Rows: res}, ex, err
}

// RunContext executes the plan, honoring ctx between tile batches.
func (p *PreparedSelect) RunContext(ctx context.Context) (*SelectResult, Explain, error) {
	p.mu <- struct{}{}
	defer func() { <-p.mu }()

	ex := p.ex
	start := time.Now()
	rows := p.root.Rows()
	ev := p.evLocal

	// Phase 1: build each filtered edge's positional bitmap over the parent.
	for i := range p.edges {
		be := &p.edges[i]
		if be.bm == nil {
			continue
		}
		be.bm.Reset(be.parent.Rows())
		if err := p.scanTiles(ctx, be.parent.Rows(), func(base, n int) {
			ev.EvalBool(be.filter, base, n, p.tcmp[:n])
			be.bm.SetFromCmp(base, p.tcmp[:n])
		}); err != nil {
			return nil, ex, err
		}
	}

	// Phase 2 (term-bitmap strategy): OR each disjunct into the root bitmap
	// term at a time, skipping tiles earlier terms already saturated.
	if p.rootBM != nil {
		p.rootBM.Reset(rows)
		for _, term := range p.terms {
			if err := p.scanTiles(ctx, rows, func(base, n int) {
				if p.rootBM.RangeAllSet(base, n) {
					return
				}
				ev.EvalBool(term, base, n, p.tcmp[:n])
				p.rootBM.OrFromCmp(base, p.tcmp[:n])
			}); err != nil {
				return nil, ex, err
			}
		}
	}

	// Phase 3: the main scan. Each tile evaluates the root predicate (or
	// reads the prebuilt bitmap), resolves every edge positionally and ANDs
	// its bitmap in, then the row stage gathers referenced columns and
	// accumulates aggregates.
	groups := map[string]*selGroup{}
	var order []*selGroup
	passed := 0
	scalarAccs := len(p.groupAt) == 0
	if err := p.scanTiles(ctx, rows, func(base, n int) {
		cmp := p.cmp[:n]
		switch {
		case p.rootBM != nil:
			p.rootBM.ReadCmp(base, cmp)
		case p.spec.Filter != nil:
			ev.EvalBool(p.spec.Filter, base, n, cmp)
		default:
			vec.Fill(cmp, 1)
		}
		for i := range p.edges {
			be := &p.edges[i]
			pos := p.pos[i][:n]
			if be.src < 0 {
				for j := 0; j < n; j++ {
					pos[j] = be.idx.Pos[base+j]
				}
			} else {
				src := p.pos[be.src][:n]
				for j := 0; j < n; j++ {
					pos[j] = be.idx.Pos[src[j]]
				}
			}
			if be.bm != nil {
				for j := 0; j < n; j++ {
					cmp[j] &= be.bm.TestBit(int(pos[j]))
				}
			}
		}
		passed += vec.CountMask(cmp)
		for j := 0; j < n; j++ {
			if cmp[j] == 0 {
				continue
			}
			for _, g := range p.gather {
				r := base + j
				if g.src >= 0 {
					r = int(p.pos[g.src][j])
				}
				p.rowBuf[g.at] = g.col.Get(r)
			}
			if p.spec.Residual != nil && expr.EvalRow(p.spec.Residual, p.rowBuf) == 0 {
				continue
			}
			p.keyBuf = p.keyBuf[:0]
			for _, at := range p.groupAt {
				p.keyBuf = binary.LittleEndian.AppendUint64(p.keyBuf, uint64(p.rowBuf[at]))
			}
			g := groups[string(p.keyBuf)]
			if g == nil {
				g = newSelGroup(p, scalarAccs)
				groups[string(p.keyBuf)] = g
				order = append(order, g)
			}
			for i := range p.spec.Aggs {
				v := int64(0)
				if arg := p.spec.Aggs[i].Arg; arg != nil {
					v = expr.EvalRow(arg, p.rowBuf)
				}
				g.accs[i].add(v)
			}
		}
	}); err != nil {
		return nil, ex, err
	}

	// A scalar aggregation over zero rows still produces one row.
	if scalarAccs && len(order) == 0 {
		order = append(order, newSelGroup(p, true))
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := order[a].keys, order[b].keys
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})

	res := &SelectResult{Fields: p.resFields}
	outRow := make([]int64, len(p.outFields))
	for _, g := range order {
		copy(outRow, g.keys)
		for i := range g.accs {
			outRow[len(g.keys)+i] = g.accs[i].finalize(p.spec.Aggs[i].Kind)
		}
		if p.spec.Having != nil && expr.EvalRow(p.spec.Having, outRow) == 0 {
			continue
		}
		final := make([]int64, len(p.spec.Project))
		for i := range p.spec.Project {
			final[i] = expr.EvalRow(p.spec.Project[i].Expr, outRow)
		}
		res.Rows = append(res.Rows, final)
	}

	if rows > 0 {
		ex.Selectivity = float64(passed) / float64(rows)
	}
	ex.Groups = len(res.Rows)
	ex.ScanTime = time.Since(start)
	return res, ex, nil
}

// newSelGroup allocates one group's key copy and accumulator row. In the
// scalar case keys stay empty.
func newSelGroup(p *PreparedSelect, scalar bool) *selGroup {
	g := &selGroup{accs: make([]accSt, len(p.spec.Aggs))}
	for i := range g.accs {
		g.accs[i].mn = math.MaxInt64
		g.accs[i].mx = math.MinInt64
	}
	if !scalar {
		g.keys = make([]int64, len(p.groupAt))
		for i, at := range p.groupAt {
			g.keys[i] = p.rowBuf[at]
		}
	}
	return g
}

// scanTiles drives fn over [0, rows) in vec.TileSize tiles, checking ctx
// between batches so cancellation stays cooperative.
func (p *PreparedSelect) scanTiles(ctx context.Context, rows int, fn func(base, n int)) error {
	const checkEvery = 64
	tile := 0
	for base := 0; base < rows; base += vec.TileSize {
		if tile%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		tile++
		n := rows - base
		if n > vec.TileSize {
			n = vec.TileSize
		}
		fn(base, n)
	}
	return nil
}
