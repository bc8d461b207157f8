package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
)

// The executor's compile: Prepare resolves a Select spec against one pinned
// catalog, estimates what the cost models need, picks the aggregation
// technique, and binds the tile pipeline of select.go. One variant of the
// pipeline per statement, derived from the spec; nothing here runs again.

// Prepare compiles a statement for the caller to keep and re-run: it resolves
// tables and foreign-key indexes from one pinned catalog, so the plan binds a
// matching pair whatever writers publish meanwhile (Tables reports which
// table objects it bound), binds every expression tree, samples
// selectivities and group counts (through the statistics cache), and fixes
// the aggregation technique via the cost model. The plan scans on all the
// engine's workers when the statement is ungrouped or its group table is
// key-addressed and merges by addition, and a warm re-run allocates nothing.
func (e *Engine) Prepare(spec Select) (*PreparedSelect, error) {
	return e.prepareSelect(spec, techAuto)
}

// Reprepare is Prepare for a statement whose earlier plan, prev, a write has
// made stale. The compile is Prepare's — every statistic, the technique and
// the group table's form are decided afresh — but where prev already holds a
// buffer of the shape the new plan needs, the plan adopts it instead of
// allocating one: each worker's group table when ht confirms its form
// (AggTable.Fits), each edge bitmap over a parent of unchanged size, the
// scalar lanes, the emission's pair and sort buffers and the result buffer,
// so the new plan's first run overwrites the answer prev's last run left.
// prev must be a plan of the same statement on this engine, and once
// Reprepare succeeds prev never runs again (its RunContext fails); a nil prev
// makes Reprepare Prepare.
func (e *Engine) Reprepare(spec Select, prev *PreparedSelect) (*PreparedSelect, error) {
	return e.compileSelect(spec, techAuto, prev)
}

// PrepareForced compiles a statement under the caller's technique instead
// of the cost model's pick — strategy comparisons on user queries, ablation
// studies, kernel parity tests. Techniques lists what a statement accepts.
// Forced plans scan on one worker: they measure kernel character, not
// parallel speedup.
func (e *Engine) PrepareForced(spec Select, tech Technique) (*PreparedSelect, error) {
	if !slices.Contains(e.Techniques(spec), tech) {
		return nil, fmt.Errorf("core: technique %s cannot be forced on this statement", tech)
	}
	return e.prepareSelect(spec, tech)
}

// Techniques is the menu PrepareForced accepts for the statement: the tile
// pipeline's techniques, eager aggregation among them when the statement
// groups by a filtered edge's foreign key (eagerEdge).
func (e *Engine) Techniques(spec Select) []Technique {
	techs := selectTechs(spec)
	if eagerEdge(e.DB.Catalog(), spec) >= 0 {
		techs = append(techs, TechEagerAggregation)
	}
	return techs
}

// selectTechs is the menu of a statement: the techniques the cost model
// chooses among, which are also the ones PrepareForced may name. Key masking
// needs a key; Engine.Techniques adds eager aggregation where it applies.
func selectTechs(q Select) []Technique {
	techs := []Technique{TechHybrid, TechValueMasking}
	if len(q.GroupBy) > 0 {
		techs = append(techs, TechKeyMasking)
	}
	return techs
}

// classicShape reports the paper's classic statements: one sum or count over
// a filtered scan of one table, ungrouped (Section II) or under one key
// (Section III-B).
func classicShape(q Select) bool {
	return len(q.GroupBy) <= 1 && len(q.Edges) == 0 && q.Residual == nil && len(q.Aggs) == 1 &&
		(q.Aggs[0].Kind == AggSum || q.Aggs[0].Kind == AggCount)
}

// canonicalGroupBy reports the classic group-by under its canonical
// projection — the key, then the aggregate, each under its own name — and no
// HAVING: its answer is the group table's (key, lane 0) pairs
// (PreparedSelect.pairOut).
func canonicalGroupBy(q Select) bool {
	if !classicShape(q) || len(q.GroupBy) != 1 || q.Having != nil || len(q.Project) != 2 {
		return false
	}
	for i, name := range []string{q.GroupBy[0], q.Aggs[0].As} {
		if c, ok := q.Project[i].Expr.(*expr.Col); !ok || c.Name != name || q.Project[i].As != name {
			return false
		}
	}
	return true
}

// eagerEdge is the join edge the statement may aggregate eagerly over
// (Section III-E), or -1: a filtered edge off the root whose foreign key is
// the lone GROUP BY column, when nothing but that filter reads its parent —
// no edge chains off it, and the residual and the aggregates read root
// columns only.
func eagerEdge(cat *storage.Catalog, q Select) int {
	at := slices.IndexFunc(q.Edges, func(ed SelectEdge) bool {
		return len(q.GroupBy) == 1 && ed.Src < 0 && ed.FK == q.GroupBy[0] && ed.Filter != nil
	})
	root := cat.Table(q.Root)
	if at < 0 || root == nil || slices.ContainsFunc(q.Edges, func(ed SelectEdge) bool { return ed.Src == at }) {
		return -1
	}
	reads := expr.Cols(q.Residual)
	for _, a := range q.Aggs {
		reads = append(reads, expr.Cols(a.Arg)...)
	}
	if slices.ContainsFunc(reads, func(name string) bool { return root.Column(name) == nil }) {
		return -1
	}
	return at
}

// shared returns the attributes both expressions reference.
func shared(a, b expr.Expr) (out []string) {
	inA := expr.Cols(a)
	for _, c := range expr.Cols(b) {
		if slices.Contains(inA, c) {
			out = append(out, c)
		}
	}
	return out
}

// staged is a row-stage expression on its way to being bound, with the
// joined-schema columns it reads and whether all of them are the root's.
type staged struct {
	x    *rowExpr
	cols []tileCol
	root bool
}

// selectCompile carries one statement through the compile's steps.
type selectCompile struct {
	e      *Engine
	cat    *storage.Catalog // the one registration state every lookup reads
	q      Select
	p      *PreparedSelect
	tech   Technique // the caller's, or techAuto
	params cost.Params
	prev   *PreparedSelect // a stale plan of the statement to adopt buffers from (Reprepare), or nil

	sel     float64 // estimated selectivity of the root and edge filters together
	eager   int     // the edge eager aggregation may run over (eagerEdge), or -1
	selS    float64 // the eager edge's selectivity
	selR    float64 // sel without the eager edge's: what the eager plan's root mask keeps
	comp    float64 // the row stage's computation cost per tuple
	groups  int     // estimated group count (1 for a scalar statement)
	domain  uint64  // distinct packed group keys; 0 when chained or scalar
	lanes   int     // accumulator lanes
	fused   fusedI8 // the fold key that computes the predicate inline, if the statement has it
	packed  bool    // the group table's records are one word (tableForm)
	htBytes int     // the group table's footprint (tableForm)
	keyCols []tileCol
	stages  []staged
	fresh   int // plan-owned buffers allocated, billed to Explain.FreshAllocs

	// Statistics looked up and served from the cache — Explain.StatsCached
	// when every lookup hit — and the time the lookups took.
	statLookups, statHits int
	statsTime             time.Duration
}

func (e *Engine) prepareSelect(q Select, tech Technique) (*PreparedSelect, error) {
	return e.compileSelect(q, tech, nil)
}

// compileSelect is the compile under Prepare, PrepareForced and Reprepare:
// prev, when not nil, is the stale plan whose buffers it adopts.
func (e *Engine) compileSelect(q Select, tech Technique, prev *PreparedSelect) (*PreparedSelect, error) {
	start := time.Now()
	if len(q.Edges) > maxSelectEdges {
		return nil, fmt.Errorf("core: %d join edges unsupported (max %d)", len(q.Edges), maxSelectEdges)
	}
	if len(q.Aggs) == 0 {
		return nil, fmt.Errorf("core: select without aggregates")
	}
	if len(q.Project) == 0 {
		return nil, fmt.Errorf("core: select without projection")
	}
	cat := e.DB.Catalog()
	root := cat.Table(q.Root)
	if root == nil {
		return nil, errNoTable(q.Root)
	}
	// The compile reads the engine's configuration and may grow its shared
	// tile scratch; both belong to the execution lock.
	e.execMu.Lock()
	defer e.execMu.Unlock()
	// PlanCached is baked in: every run of this plan replays the prepare-time
	// decision; the statement cache's first execution resets it to false.
	p := &PreparedSelect{e: e, nw: 1, spec: q, root: root, ex: Explain{PlanCached: true, Costs: map[string]float64{}}}
	c := &selectCompile{e: e, cat: cat, q: q, p: p, tech: tech, prev: prev, eager: eagerEdge(cat, q), sel: 1, selS: 1, selR: 1, groups: 1}
	for _, step := range []func() error{c.bindEdges, c.bindFilter, c.planKeys, c.chooseWorkers, c.stageExprs} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	c.chooseTechnique(tech)
	if err := c.bindRowStage(); err != nil {
		return nil, err
	}
	if err := c.bindOutput(); err != nil {
		return nil, err
	}
	c.adoptEmission()
	c.fresh += e.ensureScratchLocked(p.nw, max(len(p.cols), len(p.outFields)+len(p.proj)))
	p.ex.FreshAllocs = c.fresh
	p.ex.StatsCached = c.statLookups > 0 && c.statHits == c.statLookups
	p.kMain, p.kEdge = p.mainKernel, p.edgeKernel
	p.compiled(start, c.statsTime)
	if prev != nil {
		prev.adopted = true
	}
	return p, nil
}

// adoptEmission takes over prev's emission buffers: the (order key, slot)
// pairs, the radix sort's scratch, the ORDER BY permutation and buffer, and
// the result buffer, which a classic group-by's pairs already are
// (emitPairs).
func (c *selectCompile) adoptEmission() {
	p, prev := c.p, c.prev
	if prev == nil {
		return
	}
	p.pairs, p.scratch, p.perm, p.sorted = prev.pairs[:0], prev.scratch[:0], prev.perm[:0], prev.sorted[:0]
	if !p.pairOut {
		p.res.Flat = prev.res.Flat[:0]
	}
}

// adoptBitmap returns prev's bitmap of edge i when it covers rows positions,
// else a new one.
func (c *selectCompile) adoptBitmap(i, rows int) *bitmap.Bitmap {
	if prev := c.prev; prev != nil && i < len(prev.edges) && prev.edges[i].bm != nil && prev.edges[i].bm.Len() == rows {
		return prev.edges[i].bm
	}
	c.fresh++
	return bitmap.New(rows)
}

// selectivity samples a filter bound to t through the statistics cache,
// folds it into the statement's estimate and returns it.
func (c *selectCompile) selectivity(t *storage.Table, filter expr.Expr) float64 {
	start := time.Now()
	s, hit := c.e.selectivity(t, filter)
	c.sel *= s
	c.stat(hit, start)
	return s
}

// stat counts one statistics lookup begun at start.
func (c *selectCompile) stat(hit bool, start time.Time) {
	c.statsTime += time.Since(start)
	c.statLookups++
	if hit {
		c.statHits++
	}
}

// bindEdges resolves each join edge's foreign-key index and parent table
// and gives filtered edges their positional bitmap.
func (c *selectCompile) bindEdges() error {
	p := c.p
	for i, ed := range c.q.Edges {
		childName := c.q.Root
		if ed.Src >= 0 {
			if ed.Src >= i {
				return fmt.Errorf("core: edge %d references later edge %d", i, ed.Src)
			}
			childName = c.q.Edges[ed.Src].Parent
		}
		idx, parent := c.cat.FK(childName, ed.FK, ed.Parent, ed.PK), c.cat.Table(ed.Parent)
		switch child := c.cat.Table(childName); {
		case parent == nil:
			return errNoTable(ed.Parent)
		case idx != nil:
		case child != nil && child.Column(ed.FK) == nil:
			return errNoColumn(childName, ed.FK)
		case parent.Column(ed.PK) == nil:
			return errNoColumn(ed.Parent, ed.PK)
		default:
			return fmt.Errorf("core: no foreign key %s.%s -> %s.%s", childName, ed.FK, ed.Parent, ed.PK)
		}
		be := boundEdge{src: ed.Src, idx: idx, parent: parent, filter: ed.Filter}
		if be.filter != nil {
			if err := expr.Bind(be.filter, expr.Columns(parent)); err != nil {
				return err
			}
			be.bm, be.used = c.adoptBitmap(i, parent.Rows()), true
			p.ex.Costs[fmt.Sprintf("edge%d-bitmap-bytes", i)] = float64(be.bm.Bytes())
			p.ex.HTBytes += be.bm.Bytes()
			if s := c.selectivity(parent, be.filter); i == c.eager {
				c.selS = s
			} else {
				c.selR *= s
			}
		}
		p.edges = append(p.edges, be)
	}
	return nil
}

// bindFilter binds the root predicate and estimates its selectivity.
func (c *selectCompile) bindFilter() error {
	if c.q.Filter == nil {
		return nil
	}
	if err := expr.Bind(c.q.Filter, expr.Columns(c.p.root)); err != nil {
		return err
	}
	c.selR *= c.selectivity(c.p.root, c.q.Filter)
	return nil
}

// locate finds a joined-schema column and the table owning it: root
// columns first, then each edge's parent in order (column names are
// query-unique).
func (c *selectCompile) locate(name string) (tileCol, *storage.Table, error) {
	if col := c.p.root.Column(name); col != nil {
		return tileCol{name: name, src: -1, col: col}, c.p.root, nil
	}
	for i := range c.p.edges {
		parent := c.p.edges[i].parent
		if col := parent.Column(name); col != nil {
			return tileCol{name: name, src: i, col: col}, parent, nil
		}
	}
	return tileCol{}, nil, errNoColumn(c.q.Root, name)
}

// planKeys plans the GROUP BY columns' packing — each column's value range
// sizes its digit: the dictionary for strings, the exact cached min/max for
// everything else, so narrow columns holding a handful of values pack
// narrowly — and estimates the group count.
func (c *selectCompile) planKeys() error {
	p, nk := c.p, len(c.q.GroupBy)
	if nk == 0 {
		return nil
	}
	lo, hi := make([]int64, nk), make([]int64, nk)
	est := 1.0
	for i, g := range c.q.GroupBy {
		tc, table, err := c.locate(g)
		if err != nil {
			return err
		}
		c.keyCols = append(c.keyCols, tc)
		start := time.Now()
		if tc.col.Dict != nil {
			hi[i] = int64(max(tc.col.Dict.Len(), 1) - 1)
		} else {
			lo[i], hi[i] = c.e.colRange(table, tc.col)
		}
		key := expr.NewCol(g)
		if err := expr.Bind(key, expr.Columns(table)); err != nil {
			return err
		}
		groups, hit := c.e.groupCount(table, key)
		est *= float64(max(groups, 1))
		c.stat(hit, start)
		p.outFields = append(p.outFields, expr.Field{Name: g, Dict: tc.col.Dict, Log: tc.col.Log})
	}
	p.keys, c.domain = planGroupKeys(lo, hi)
	limit := float64(max(p.root.Rows(), 1))
	if c.domain > 0 {
		limit = min(limit, float64(c.domain))
	}
	c.groups = int(min(est, limit))
	return nil
}

// chooseWorkers puts a statement the cost model plans on all the engine's
// workers when their partials merge exactly — scalar lanes, or a key-addressed
// group table of sums and counts (the form rule ignores the worker count:
// this is the table priceGroups picks) — and prices it for that many workers.
func (c *selectCompile) chooseWorkers() error {
	p, grouped, gang, lanes := c.p, len(c.q.GroupBy) > 0, c.tech == techAuto, 0
	for _, a := range c.q.Aggs {
		gang = gang && (!grouped || a.Kind != AggMin && a.Kind != AggMax)
		if a.Kind != AggCount {
			lanes++
		}
	}
	if grouped {
		_, _, domain, _ := tableForm(c.e.Params, 0, int64(c.domain-1), lanes, c.groups, p.root.Rows(), c.sumBound())
		gang = gang && domain > 0
	}
	if gang {
		p.nw = c.e.workers()
	}
	c.params, p.ex.Workers = c.e.Params.ForWorkers(p.nw), p.nw
	return nil
}

// stageExprs collects the row stage's expressions — the residual and the
// aggregate arguments — with the columns each reads, assigns accumulator
// lanes, and prices the stage: the expressions' operators plus one random
// access per lane for every parent column read and every chained edge on the
// way to it.
func (c *selectCompile) stageExprs() error {
	p, q := c.p, c.q
	stage := func(x *rowExpr, e expr.Expr) error {
		*x = rowExpr{e: e, slot: -1}
		st := staged{x: x, root: true}
		for _, name := range expr.Cols(e) {
			tc, _, err := c.locate(name)
			if err != nil {
				return err
			}
			st.root = st.root && tc.src < 0
			st.cols = append(st.cols, tc)
		}
		c.stages = append(c.stages, st)
		return nil
	}
	if q.Residual != nil {
		if err := stage(&p.residual, q.Residual); err != nil {
			return err
		}
	}
	p.aggs = make([]selAgg, len(q.Aggs))
	for i, a := range q.Aggs {
		p.aggs[i] = selAgg{kind: a.Kind, lane: -1, arg: rowExpr{slot: -1}}
		if a.Arg != nil {
			if err := stage(&p.aggs[i].arg, a.Arg); err != nil {
				return err
			}
			c.comp += expr.CompCost(a.Arg, c.params)
		}
		if a.Kind != AggCount {
			p.aggs[i].lane = c.lanes
			c.lanes++
		}
		p.outFields = append(p.outFields, expr.Field{Name: a.As, Log: storage.LogInt})
	}

	reached := make([]bool, len(p.edges))
	gather := func(cols []tileCol) {
		for _, tc := range cols {
			if tc.src >= 0 {
				c.comp += c.params.HTLookup(tc.col.MemBytes())
				reached[tc.src] = true
			}
		}
	}
	gather(c.keyCols)
	for _, st := range c.stages {
		gather(st.cols)
	}
	for i := len(p.edges) - 1; i >= 0; i-- {
		if src := p.edges[i].src; reached[i] && src >= 0 {
			c.comp += c.params.HTLookup(4 * len(p.edges[i].idx.Pos))
			reached[src] = true
		}
	}
	return nil
}

// chooseTechnique evaluates the Section III-A/III-B models over the
// estimated mask selectivity, the row stage's computation cost, the
// aggregate count and the table estimate, records every alternative's cost,
// and fixes the technique: the cheapest, or the caller's. A statement with an
// eager edge weighs eager aggregation against its positional-bitmap plan
// first (chooseEager).
func (c *selectCompile) chooseTechnique(tech Technique) {
	p, params, rows := c.p, c.params, c.p.root.Rows()
	auto := tech == techAuto
	var strat cost.AggStrategy
	if len(c.q.GroupBy) == 0 {
		// Value masking whose loop computes the predicate inline is priced
		// at that loop's own per-row term.
		h, vm := params.Hybrid(rows, c.sel, c.comp), params.ValueMasking(rows, c.comp)
		if c.fused = c.fusedShape(); c.fused.ok {
			vm = params.ValueMaskingFused(rows)
		}
		if strat = cost.ChooseHybrid; vm < h {
			strat = cost.ChooseValueMasking
		}
		p.ex.Costs["hybrid"], p.ex.Costs["value-masking"] = h, vm
	} else {
		_, p.ex.Costs["hashed"] = params.ChooseGroupAgg(rows, c.sel, c.comp, c.lanes+1, c.groups*ht.HashedSlotBytes(c.lanes))
		var direct float64
		strat, direct = c.priceGroups(c.sel)
		if c.eager >= 0 && (auto || tech == TechEagerAggregation) && c.chooseEager(direct, tech) {
			strat, _ = c.priceGroups(c.selR)
		}
	}
	if auto || p.eager != nil {
		tech = [...]Technique{
			cost.ChooseHybrid:       TechHybrid,
			cost.ChooseValueMasking: TechValueMasking,
			cost.ChooseKeyMasking:   TechKeyMasking,
		}[strat]
	}
	p.tech, p.ex.Technique = tech, tech
	switch {
	case p.eager != nil:
		p.ex.Technique = TechEagerAggregation
	case auto && len(p.edges) > 0:
		// Every join edge is a positional-bitmap probe and Explain leads with
		// that; the aggregation technique is the cheapest entry of Costs.
		p.ex.Technique = TechPositionalBitmap
	}
	if classicShape(c.q) && len(c.q.GroupBy) == 0 {
		// A masking win with shared filter/aggregate attributes is reported as
		// access merging (Section III-C: "always beneficial if it can be
		// applied"): the shared attribute's second read hits the tile still
		// resident in cache.
		p.ex.Merged = shared(c.q.Filter, c.q.Aggs[0].Arg)
		if auto && tech == TechValueMasking && len(p.ex.Merged) > 0 {
			p.ex.Technique = TechAccessMerging
		}
	}
	p.ex.Selectivity, p.ex.CompCost, p.ex.Groups = c.sel, c.comp, c.groups
	p.ex.HTBytes += c.htBytes
}

// priceGroups fixes the group table's form for the planned keys, prices the
// grouped techniques over it at mask selectivity sel, records them, and
// returns the cheapest and its cost. Value masking masks every lane and the
// shared count — except on a packed table, where the count rides in the sum's
// word and one add folds both.
func (c *selectCompile) priceGroups(sel float64) (cost.AggStrategy, float64) {
	p, rows := c.p, c.p.root.Rows()
	var form cost.Params
	// A packed key is its own slot: [0, D) for D packed keys, none (-1) when chained.
	form, c.htBytes, p.ex.DenseDomain, c.packed = tableForm(c.params, 0, int64(c.domain-1), c.lanes, c.groups, rows, c.sumBound())
	nAggs := c.lanes + 1
	if c.packed {
		nAggs = 1
	}
	strat, direct := form.ChooseGroupAgg(rows, sel, c.comp, nAggs, c.htBytes)
	if p.ex.DenseDomain > 0 {
		p.ex.Costs["dense"] = direct
	}
	p.ex.Costs["hybrid"] = form.HybridGroup(rows, sel, c.comp, c.htBytes)
	p.ex.Costs["value-masking"] = form.ValueMaskingGroup(rows, c.comp+float64(nAggs)*form.CompMul, c.htBytes)
	p.ex.Costs["key-masking"] = form.KeyMasking(rows, sel, c.comp+form.CompCmp, c.htBytes)
	return strat, direct
}

// chooseEager weighs eager aggregation (the EA term of the Section III-E
// model, over one group per parent row) against the positional-bitmap plan —
// direct plus a bitmap probe per row the root mask keeps (Section III-D) —
// and records both. When eager aggregation is cheaper, or the caller's pick,
// it rebuilds the plan around it: the parent positions the edge's
// foreign-key index holds become the group key over [0, |Parent|), and the
// edge leaves the row stage for the emission.
func (c *selectCompile) chooseEager(direct float64, tech Technique) bool {
	p, rows := c.p, c.p.root.Rows()
	be := &p.edges[c.eager]
	s := be.parent.Rows()
	bitmapPlan := direct + float64(rows)*c.selR*c.params.HTLookup(be.bm.Bytes())
	hi := int64(max(s, 1) - 1) // a parent without rows has no children: a one-slot table stays empty
	form, bytes, _, _ := tableForm(c.params, 0, hi, c.lanes, s, rows, c.sumBound())
	_, _, ea := form.ChooseGroupjoin(s, c.selS, rows, c.selR, c.selS, c.comp, bytes)
	p.ex.Costs["positional-bitmap"], p.ex.Costs["eager-aggregation"] = bitmapPlan, ea
	if ea >= bitmapPlan && tech != TechEagerAggregation {
		return false
	}
	// The key column is the edge's foreign-key index read as a root column,
	// under a name no SQL identifier has: a statement that also reads the
	// foreign key gets the key's values.
	pos := &storage.Column{Name: "#position", Kind: storage.KindInt32, Log: storage.LogInt, I32: be.idx.Pos}
	p.eager, be.used, c.keyCols[0] = be.bm, false, tileCol{name: pos.Name, src: -1, col: pos}
	p.keys, c.domain = planGroupKeys([]int64{0}, []int64{hi})
	c.groups = s
	p.pk = be.parent.Column(be.idx.PK)
	start := time.Now()
	p.pkAscends = c.e.colFacts(be.parent, p.pk).ascends
	c.statsTime += time.Since(start)
	return true
}

// sumBound is addBound for the first lane — the first aggregate that is not a
// count — when it is a sum (an average's too) of a bare column, which is not
// bound yet; 0 otherwise.
func (c *selectCompile) sumBound() uint64 {
	for _, a := range c.q.Aggs {
		if a.Kind == AggCount {
			continue
		}
		col, ok := a.Arg.(*expr.Col)
		if !ok || a.Kind == AggMin || a.Kind == AggMax {
			return 0
		}
		tc, _, _ := c.locate(col.Name)
		return addBound(col, tc.col)
	}
	return 0
}

// bindRowStage decides which columns become tile vectors, binds every
// row-stage expression, and allocates the aggregation state. Under hybrid
// the lanes are the selected rows, so every column read gets a vector;
// under masking the lanes are the tile's rows and an expression over root
// columns alone reads them in place, at native width.
func (c *selectCompile) bindRowStage() error {
	p := c.p
	// A lone key column addresses a key-addressed table by value — its slot
	// is still the packed key — unless no table can start at its digit origin.
	d, lo := int64(p.ex.DenseDomain), int64(0)
	if o := p.keys.lo; d > 0 && len(c.keyCols) == 1 && o[0] != ht.NullKey && o[0]+(d-1) >= o[0] {
		lo, p.keys.byValue = o[0], true
	}
	need := func(tc tileCol) {
		if slot(p.cols, tc.name) < 0 {
			p.cols = append(p.cols, tc)
		}
	}
	grouped := len(c.q.GroupBy) > 0
	for _, st := range c.stages {
		if st.root && p.tech != TechHybrid {
			continue
		}
		for _, tc := range st.cols {
			if tc.src >= 0 || !c.mixedProduct(st) {
				need(tc)
			}
		}
	}
	c.mergeOperands()
	if !c.bindFold() {
		for _, tc := range c.keyCols {
			need(tc)
		}
	}
	p.front = (*PreparedSelect).stage
	if p.tech == TechHybrid {
		p.front = (*PreparedSelect).compact
	}
	// Vectors are grouped by source, so a compacting gather builds one
	// position vector per source.
	slices.SortStableFunc(p.cols, func(a, b tileCol) int { return a.src - b.src })
	for _, tc := range c.keyCols {
		p.keys.cols = append(p.keys.cols, slot(p.cols, tc.name))
	}
	// bare records the tile vector a bare column's values already sit in.
	bare := func(x *rowExpr) {
		if col, ok := x.e.(*expr.Col); ok {
			x.slot = slot(p.cols, col.Name)
		}
	}
	for _, st := range c.stages {
		if err := expr.Bind(st.x.e, stageSource{p}); err != nil {
			return err
		}
		bare(st.x)
	}
	// An edge's positions are needed by its own bitmap, by its columns, and
	// by every edge chained off it.
	for _, tc := range p.cols {
		if tc.src >= 0 {
			p.edges[tc.src].used = true
		}
	}
	for i := len(p.edges) - 1; i >= 0; i-- {
		if src := p.edges[i].src; p.edges[i].used && src >= 0 {
			p.edges[src].used = true
		}
	}

	// Aggregation state: one stripe of scalar lanes per worker, whole cache
	// lines apart so concurrent folds do not false-share, or one group table
	// per worker sized from the estimate.
	if !grouped {
		p.stride = (1 + c.lanes + 7) &^ 7
		if prev := c.prev; prev != nil && len(prev.part) == p.nw*p.stride {
			p.part = prev.part
		} else {
			p.part = make([]int64, p.nw*p.stride)
			c.fresh++
		}
		p.acc = p.part[1 : 1+c.lanes]
		return nil
	}
	p.tabs = make([]*ht.AggTable, p.nw)
	for w := range p.tabs {
		hi := lo + d - 1 // lo-1 when hashed: Fits reads hi < lo as a hashed request
		switch prev := c.prev; {
		case prev != nil && w < len(prev.tabs) && prev.tabs[w].Fits(c.lanes, lo, hi, c.packed, c.groups):
			p.tabs[w] = prev.tabs[w]
		case d > 0:
			p.tabs[w] = ht.NewDenseAggTable(c.lanes, lo, hi, c.packed)
			c.fresh++
		default:
			p.tabs[w] = ht.NewAggTable(c.lanes, c.groups)
			c.fresh++
		}
		for i := range p.aggs {
			if a := &p.aggs[i]; a.lane >= 0 && a.identity() != 0 {
				p.tabs[w].SetIdentity(a.lane, a.identity())
			}
		}
	}
	p.tab = p.tabs[0]
	p.keys.alloc(c.groups)
	p.pairOut = canonicalGroupBy(c.q) && p.keys.mult != nil
	return nil
}

// mixedProduct reports an aggregate argument of a scalar statement under
// masking that multiplies a root column by a parent column: bindScalar reads
// the root factor in place at its stored width, so it gets no tile vector.
func (c *selectCompile) mixedProduct(st staged) bool {
	_, _, prod := factors(st.x.e)
	return prod && !st.root && st.x != &c.p.residual && len(c.q.GroupBy) == 0 && c.p.tech != TechHybrid
}

// mergeOperands is access merging for aggregate operands (Section III-C,
// "always"): it orders the fold so that aggregates over structurally equal
// arguments are adjacent and every one after the first folds from the
// operand vector the first evaluated — min(x) and max(x) read x once per
// tile. Sharing the vector costs a scalar lane its native-width fold. The
// columns read once for several aggregates are Explain.Merged.
func (c *selectCompile) mergeOperands() {
	p := c.p
	text := make([]string, len(p.aggs))
	for i := range p.aggs {
		if a := &p.aggs[i]; a.lane >= 0 && c.lanes > 1 {
			text[i] = a.arg.e.String()
		}
	}
	for i := range p.aggs {
		a := &p.aggs[i]
		if a.lane < 0 || a.arg.merged {
			continue
		}
		p.fold = append(p.fold, i)
		for j := i + 1; j < len(p.aggs); j++ {
			b := &p.aggs[j]
			if b.lane < 0 || b.arg.merged || text[j] != text[i] {
				continue
			}
			a.shared, b.shared, b.arg.merged = true, true, true
			p.fold = append(p.fold, j)
			for _, name := range expr.Cols(a.arg.e) {
				if !slices.Contains(p.ex.Merged, name) {
					p.ex.Merged = append(p.ex.Merged, name)
				}
			}
		}
	}
}

// bindOutput binds HAVING and the projection to the aggregate output schema
// (group keys, then aggregate aliases), notes which output columns copy a
// column of it, and builds the result header.
func (c *selectCompile) bindOutput() error {
	p, q := c.p, c.q
	if q.Having != nil {
		if err := expr.Bind(q.Having, p.outFields); err != nil {
			return err
		}
	}
	p.proj = make([]int, len(q.Project))
	for i := range q.Project {
		if err := expr.Bind(q.Project[i].Expr, p.outFields); err != nil {
			return err
		}
		f, at := expr.Field{Name: q.Project[i].As, Log: storage.LogInt}, len(p.outFields)+i
		if col, ok := q.Project[i].Expr.(*expr.Col); ok {
			at = p.outFields.Index(col.Name)
			f.Dict, f.Log = p.outFields[at].Dict, p.outFields[at].Log
		}
		p.fields, p.proj[i] = append(p.fields, f), at
	}
	p.res.Fields = p.fields
	if len(q.Order) > 0 || q.Limit > 0 {
		return c.bindOrder()
	}
	return nil
}

// bindOrder resolves ORDER BY to output columns and appends every output
// column ascending, so rows tied on every key order by their columns, left
// to right, and LIMIT cuts at the same row in every engine.
func (c *selectCompile) bindOrder() error {
	p, q := c.p, c.q
	order := make([]orderKey, 0, len(q.Order)+len(p.proj))
	for _, k := range q.Order {
		j := slices.IndexFunc(q.Project, func(pr SelectProj) bool { return pr.As == k.Col })
		if j < 0 {
			return fmt.Errorf("core: ORDER BY %s names no output column", k.Col)
		}
		order = append(order, orderKey{col: j, desc: k.Desc})
	}
	for j := range p.proj {
		order = append(order, orderKey{col: j})
	}
	p.order = order
	return nil
}
