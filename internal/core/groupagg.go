package core

import (
	"context"
	"math"
	"time"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// GroupAgg is a filtered group-by sum: select Key, sum(Agg) from Table
// where Filter group by Key — the shape of Section III-B, micro Q2, and
// the aggregation side of TPC-H Q1/Q13.
type GroupAgg struct {
	Table  string
	Filter expr.Expr // nil selects everything
	Key    expr.Expr // group-by key (integer-valued)
	Agg    expr.Expr // summed expression
}

// PreparedGroupAgg is the compiled plan for a group-by aggregation. The
// compile decides the masking strategy, the form of the group table
// (key-addressed when the key's domain is known and dense, hashed
// otherwise) AND the direct-vs-radix execution mode; the plan owns
// per-worker tables (direct) or partitioners, cache-resident fold tables,
// and emission buffers (radix).
type PreparedGroupAgg struct {
	planCore
	groupEmit
	rows   int
	filter expr.Expr
	key    expr.Expr
	agg    expr.Expr
	tabs   []*ht.AggTable // key-addressed when ex.DenseDomain > 0: merge by addition, emit in slot order

	// keyCol is the key's storage column when the key is a bare column
	// reference — the common case — bound at compile time so the masking
	// kernels can fuse key materialization and null-masking into one
	// native-width pass (Column.MaskKeysInto) instead of widening through
	// the generic evaluator and masking in a second loop. Nil otherwise.
	// aggCol is the same for the summed expression: with both bound, a sparse
	// tile's selected lanes are gathered at native width (gatherSelected).
	keyCol, aggCol *storage.Column

	// Radix-partitioned two-phase variant (see partition.go): the kernel
	// becomes the phase-1 scatter (through the engine's shared chunk
	// arena) and phase2 folds claimed partitions, emitting final groups
	// into per-partition buffers — per partition, not per worker, so each
	// buffer's demand is fixed by the data rather than by which worker
	// happened to claim it, and warm capacities never creep.
	partitioned bool
	parts       int
	parters     []*ht.Partitioner
	smalls      []*ht.AggTable
	emit        [][]int64 // indexed by partition; filled by its claiming worker

	kernel kernelFn
	phase2 func(w, part int)

	// Technique menu (direct kernels), phase-1 scatter, phase-2 fold.
	kTuple     kernelFn
	kHybrid    kernelFn
	kValueMask kernelFn
	kKeyMask   kernelFn
	kScatter   kernelFn
	kFold      func(w, part int)
}

// newGroupPlan builds an empty plan with its kernel menu.
func newGroupPlan() *PreparedGroupAgg {
	p := &PreparedGroupAgg{}
	p.kTuple = func(w, base, length int) {
		tab := p.tabs[w]
		for i := base; i < base+length; i++ {
			if p.filter == nil || expr.Eval(p.filter, i, nil) != 0 {
				slot := tab.Lookup(expr.Eval(p.key, i, nil))
				tab.Add(slot, 0, expr.Eval(p.agg, i, nil))
			}
		}
	}
	p.kHybrid = func(w, base, length int) {
		s, tab := &p.states[w], p.tabs[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.filter, b, tl)
			n, d := vec.SelFromCmpAdaptive(s.Cmp[:tl], s.Idx)
			s.ctr.CountSel(d)
			if !p.gatherSelected(s, b, n, d) {
				// Evaluate the whole tile and compact by the selection in place
				// (Idx ascends: no lane is read after it is written).
				s.ev.EvalInt(p.key, expr.Rows(b, tl), s.Keys)
				s.ev.EvalInt(p.agg, expr.Rows(b, tl), s.Vals)
				for j, i := range s.Idx[:n] {
					s.Keys[j], s.Vals[j] = s.Keys[i], s.Vals[i]
				}
			}
			tab.AddPairs(s.Keys[:n], s.Vals[:n])
		})
	}
	// The direct probe kernels run plain insert loops, no touch lookahead:
	// a Lookup's first access IS the home line a touch would load, so the
	// lookahead doubles the loop's random-line demand, and measured on the
	// calibration host that loses more than the overlap wins (see DESIGN.md
	// §11.3). The lookahead pays only where the touched line is distinct
	// from cheap intervening work: the radix scatter (TouchAppend), the
	// phase-2 fold, and the table merge keep it.
	p.kValueMask = func(w, base, length int) {
		s, tab := &p.states[w], p.tabs[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.filter, b, tl)
			s.ev.EvalInt(p.key, expr.Rows(b, tl), s.Keys)
			s.ev.EvalInt(p.agg, expr.Rows(b, tl), s.Vals)
			tab.AddPairsMasked(s.Keys[:tl], s.Vals[:tl], s.Cmp[:tl])
			s.ctr.MaskedAgg++
		})
	}
	p.kKeyMask = func(w, base, length int) {
		s, tab := &p.states[w], p.tabs[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.filter, b, tl)
			p.maskKeys(s, b, tl)
			s.ev.EvalInt(p.agg, expr.Rows(b, tl), s.Vals)
			tab.AddPairs(s.Keys[:tl], s.Vals[:tl])
		})
	}
	// The phase-1 scatter is one kernel under every technique: whichever
	// masking strategy the direct path would run, only what passed the filter
	// is worth writing twice. A rejected tuple that does ride along carries
	// ht.NullKey, which phase 2 routes to the throwaway entry, so a group is
	// emitted iff some valid tuple reached it and the result is bit-identical
	// to the direct path. It appends without a touch lookahead: with a radix
	// fan-out of P partitions the write targets are P chunk tails — a handful
	// of cache lines that never leave L2 — so touching them ahead only adds
	// hash work (measured ~7% of scatter time; see DESIGN.md §11.3).
	p.kScatter = func(w, base, length int) {
		s, pr := &p.states[w], p.parters[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.filter, b, tl)
			n, dc := vec.SelFromCmpAdaptive(s.Cmp[:tl], s.Idx)
			s.ctr.CountSel(dc)
			switch {
			case dc == vec.DensityDense:
				// Nearly every lane passes: append the whole masked tile.
				// The few rejects fold into the throwaway entry, cheaper than
				// indirecting every lane through the selection vector.
				p.maskKeys(s, b, tl)
				s.ev.EvalInt(p.agg, expr.Rows(b, tl), s.Vals)
				n = tl
			case p.gatherSelected(s, b, n, dc): // the pairs sit in lanes [0, n)
			default:
				// Rejected pairs never reach the scatter, so phase 1 writes and
				// phase 2 folds only the selected (1-selectivity savings on both
				// passes). The selected keys need no mask: they passed the filter.
				s.ev.EvalInt(p.key, expr.Rows(b, tl), s.Keys)
				s.ev.EvalInt(p.agg, expr.Rows(b, tl), s.Vals)
				for _, i := range s.Idx[:n] {
					pr.Append(s.Keys[i], s.Vals[i])
				}
				return
			}
			for j := 0; j < n; j++ {
				pr.Append(s.Keys[j], s.Vals[j])
			}
		})
	}
	p.kFold = func(w, part int) {
		s, tab := &p.states[w], p.smalls[w]
		s.ctr.PrefetchProbe += uint64(foldPartition(tab, p.parters, part))
		p.emit[part] = tab.AppendGroups(p.emit[part])
	}
	return p
}

// perWorkerHint sizes each worker-private direct-path table. A gang of nw
// workers splits roughly inserted table-bound tuples, so one worker's key
// draw is inserted/nw uniform samples over the group domain; the expected
// distinct count is groups*(1-e^(-draw/groups)), which correctly spans
// both regimes — near groups/nw for high-cardinality keys and near groups
// for heavily repeated ones. The expectation is used without extra
// headroom: the table's own hint-to-capacity doubling already leaves the
// expected load under 50%, the sampled group count skews high, and
// morsel-claim imbalance beyond that grows the table once and the
// capacity ratchets in the plan's table — a misestimate costs one
// rehash, never steady-state allocation. Undershooting the power-of-two
// capacity step matters here: at high cardinality it is what keeps a
// worker's table within the last-level cache, which is the direct path's
// whole scaling story. Sizing per worker instead of cloning the global
// hint keeps the gang's combined footprint (and the emission scan over
// it) at the single-worker level.
func perWorkerHint(groups, nw, inserted int) int {
	if nw <= 1 || groups <= 0 {
		return groups
	}
	draw := float64(inserted) / float64(nw)
	distinct := float64(groups) * (1 - math.Exp(-draw/float64(groups)))
	h := int(distinct)
	if h > groups {
		h = groups
	}
	if h < 1 {
		h = 1
	}
	return h
}

// gatherSelected is the sparse arm of the kernels that fold only selected
// lanes: when the tile is sparse and key and argument are bare columns, it
// reads the n rows listed in s.Idx, and nothing else, at native width into
// s.Keys[:n] and s.Vals[:n]. Otherwise it reports false and touches nothing;
// the caller evaluates the whole tile.
func (p *PreparedGroupAgg) gatherSelected(s *workerState, b, n int, d vec.Density) bool {
	if d != vec.DensitySparse || p.keyCol == nil || p.aggCol == nil {
		return false
	}
	sel := s.Idx[:n]
	for j := range sel {
		sel[j] += int32(b)
	}
	p.keyCol.GatherInto(sel, s.Keys)
	p.aggCol.GatherInto(sel, s.Vals)
	return true
}

// maskKeys materializes one tile's group-by keys into s.Keys with rejected
// lanes replaced by ht.NullKey: a single native-width fused pass when the
// key is a bare column (keyCol), else the generic widen followed by an
// unrolled in-place mask.
func (p *PreparedGroupAgg) maskKeys(s *workerState, b, tl int) {
	if p.keyCol != nil {
		p.keyCol.MaskKeysInto(b, tl, s.Cmp[:tl], ht.NullKey, s.Keys)
		if p.keyCol.Dict != nil {
			s.ctr.DictKeys++
		}
	} else {
		s.ev.EvalInt(p.key, expr.Rows(b, tl), s.Keys)
		vec.MaskKeysU(s.Keys[:tl], s.Cmp[:tl], ht.NullKey, s.Keys)
	}
	s.ctr.KeyMask++
}

// compileGroupAgg plans a group-by aggregation: masking strategy from the
// Section III-B models, direct-vs-radix from the partition crossover,
// kernels and buffers bound for the winner. It takes the execution lock: a
// partitioned compile may grow the shared scatter arena, which must not
// happen under a running scan.
func (e *Engine) compileGroupAgg(q GroupAgg, tech Technique) (*PreparedGroupAgg, error) {
	start := time.Now()
	t := e.DB.Table(q.Table)
	if t == nil {
		return nil, errNoTable(q.Table)
	}
	for _, x := range []expr.Expr{q.Filter, q.Key, q.Agg} {
		if x == nil {
			continue
		}
		if err := expr.Bind(x, expr.Columns(t)); err != nil {
			return nil, err
		}
	}
	e.execMu.Lock()
	defer e.execMu.Unlock()
	p := newGroupPlan()
	fresh := p.bindCore(e, tech != techAuto)
	p.rows = t.Rows()
	p.filter, p.key, p.agg = q.Filter, q.Key, q.Agg
	if c, ok := q.Key.(*expr.Col); ok {
		p.keyCol = c.Column()
	}
	if c, ok := q.Agg.(*expr.Col); ok {
		p.aggCol = c.Column()
	}

	params := e.Params.ForWorkers(p.nw)
	comp := expr.CompCost(q.Agg, params)
	statsStart := time.Now()
	sel, selHit := e.selectivity(t, q.Filter)
	groups, grpHit := e.groupCount(t, q.Key)

	// The table's form, from what the catalog knows about a bare-column key:
	// a dictionary's codes, or the column's exact cached range.
	hashedBytes := groups * ht.HashedSlotBytes(1)
	lo, hi := int64(1), int64(0) // nothing known
	if p.keyCol != nil && p.rows > 0 {
		if d := p.keyCol.Dict; d != nil {
			lo, hi = 0, int64(max(d.Len(), 1)-1)
		} else {
			lo, hi = e.colRange(q.Table, p.keyCol)
		}
	}
	statsTime := time.Since(statsStart)
	form, htBytes, domain, packed := tableForm(params, lo, hi, 1, groups, p.rows, addBound(q.Agg, p.aggCol))
	strat, directCost := form.ChooseGroupAgg(p.rows, sel, comp, 1, htBytes)
	_, hashedCost := params.ChooseGroupAgg(p.rows, sel, comp, 1, hashedBytes)
	p.ex = Explain{
		Selectivity: sel,
		CompCost:    comp,
		Groups:      groups,
		HTBytes:     htBytes,
		DenseDomain: domain,
		Workers:     p.nw,
		StatsCached: selHit && grpHit,
		PlanCached:  true,
		Costs: map[string]float64{
			"hybrid":        form.HybridGroup(p.rows, sel, comp, htBytes),
			"value-masking": form.ValueMaskingGroup(p.rows, comp+params.CompMul, htBytes),
			"key-masking":   form.KeyMasking(p.rows, sel, comp+params.CompCmp, htBytes),
			"hashed":        hashedCost,
		},
	}
	if domain > 0 {
		p.ex.Costs["dense"] = directCost
	}
	if tech == techAuto {
		tech = [...]Technique{
			cost.ChooseHybrid:       TechHybrid,
			cost.ChooseValueMasking: TechValueMasking,
			cost.ChooseKeyMasking:   TechKeyMasking,
		}[strat]
	}
	p.ex.Technique = tech

	// The radix decision applies only to gang execution; forced runs
	// measure the masking kernel itself. The partitioned alternative folds
	// into hashed sub-tables (a radix partition is a slice of the hash
	// space, not of the key range), so it is sized and priced from the
	// hashed footprint and weighed against the direct path in the form
	// chosen above.
	if !p.seq {
		usePart, parts, partCost := choosePartition(e.Partition, params, p.rows, comp, hashedBytes, directCost)
		if parts > 1 {
			p.ex.Costs["partitioned"] = partCost
		}
		if usePart {
			p.partitioned, p.parts = true, parts
			p.ex.Partitioned, p.ex.Partitions = true, parts
			p.ex.DenseDomain, p.ex.HTBytes = 0, hashedBytes
			pool, f := e.ensureScatterLocked(p.rows, p.nw, parts)
			p.parters = newPartitioners(p.nw, parts, pool)
			p.smalls = newTables(p.nw, subTableHint(groups, parts))
			p.emit = make([][]int64, parts)
			fresh += f + 2*p.nw
			p.kernel, p.phase2 = p.kScatter, p.kFold
		}
	}
	if !p.partitioned {
		if domain > 0 {
			p.tabs = newDenseTables(p.nw, lo, hi, packed)
		} else {
			inserted := int(float64(p.rows) * sel)
			if tech == TechValueMasking {
				// Value masking inserts every tuple (rejected ones carry masked
				// values), so each worker's key draw spans the whole scan.
				inserted = p.rows
			}
			p.tabs = newTables(p.nw, perWorkerHint(groups, p.nw, inserted))
		}
		fresh += p.nw
		switch tech {
		case TechDataCentric:
			p.kernel = p.kTuple
		case TechValueMasking:
			p.kernel = p.kValueMask
		case TechKeyMasking:
			p.kernel = p.kKeyMask
		default:
			p.kernel = p.kHybrid
		}
	}
	p.ex.FreshAllocs = fresh
	p.compiled(start, statsTime)
	return p, nil
}

// runDirect scans into per-worker tables, merges them, and emits the
// result in key order.
func (p *PreparedGroupAgg) runDirect(ctx context.Context) error {
	for _, tab := range p.tabs {
		tab.Reset()
	}
	grows0 := growsSum(p.tabs)
	start := time.Now()
	p.scan(ctx, p.rows, p.kernel)
	p.ex.ScanTime = time.Since(start)
	p.ex.HTGrows = int(growsSum(p.tabs) - grows0)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	p.reset()
	if p.ex.DenseDomain > 0 {
		// Key-addressed tables share one slot per key: the workers' partials
		// merge by adding the record arrays, and the merged array walks in key
		// order, so the walk writes the sorted answer.
		merged := p.tabs[0]
		for _, tab := range p.tabs[1:] {
			merged.MergeFrom(tab)
		}
		p.pairs = merged.AppendGroups(p.pairs)
		p.out.Flat = p.pairs
	} else {
		// Merge by sort, not by table: every worker's (key, partial) pairs go
		// into the emission buffer and the radix sort brings each group's
		// partials adjacent, where finishCombine sums them. A hashed-table
		// merge would probe the destination once per source group — random
		// DRAM reads — while the sort's passes stream; at 1M groups the sorted
		// merge is several times cheaper and the emission sorts anyway.
		for _, tab := range p.tabs {
			p.pairs = tab.AppendGroups(p.pairs)
		}
		p.finishCombine()
	}
	p.sumVariants()
	p.ex.MergeTime = time.Since(start)
	return nil
}

// runRadix is the two-phase steady-state scan: one scanTwoPhase call
// covers the partition scatter, the in-gang barrier, and the partition-
// wise fold; the merge that remains on this goroutine is a concatenation
// of already-final per-worker emissions plus the key sort.
func (p *PreparedGroupAgg) runRadix(ctx context.Context) error {
	for _, pr := range p.parters {
		pr.Reset()
	}
	p.e.scatter.Reset()
	for i := range p.emit {
		p.emit[i] = p.emit[i][:0]
	}
	grows0 := growsSum(p.smalls)
	start := time.Now()
	p.ex.PartitionTime = p.scanTwoPhase(ctx, p.rows, p.kernel, p.parts, p.phase2)
	p.ex.ScanTime = time.Since(start)
	p.ex.HTGrows = int(growsSum(p.smalls) - grows0)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	p.finishFrom(p.emit)
	p.sumVariants()
	p.ex.MergeTime = time.Since(start)
	return nil
}

// Run executes the prepared aggregation and returns the reused result.
// Allocation-free once the result arrays and any under-estimated hash
// capacity have warmed (first call).
func (p *PreparedGroupAgg) Run() (*GroupResult, Explain) {
	res, ex, _ := p.RunContext(nil)
	return res, ex
}

// RunContext executes the prepared aggregation under the context's
// deadline; see PreparedSelect.RunContext for the cancellation contract.
//
// Execution is morsel-parallel with per-worker hash tables: each worker
// aggregates the morsels it claims into a private ht.AggTable (masked
// tuples still hit that worker's throwaway entry under key masking, and
// per-group validity flags are maintained per worker under value
// masking), and the merge phase folds the partial tables into the result.
// A group is emitted iff some worker saw a valid tuple for it, and
// partial sums of rejected tuples are zero under masking, so the merged
// result is identical to the sequential one. When the estimated table
// overflows the cache budget, the radix-partitioned two-phase path runs
// instead (see partition.go).
func (p *PreparedGroupAgg) RunContext(ctx context.Context) (*GroupResult, Explain, error) {
	p.e.execMu.Lock()
	defer p.e.execMu.Unlock()
	var err error
	if p.partitioned {
		err = p.runRadix(ctx)
	} else {
		err = p.runDirect(ctx)
	}
	if err != nil {
		return nil, Explain{}, p.canceled(err)
	}
	return &p.out, p.snapshot(), nil
}

// RunPartial implements Plan.
func (p *PreparedGroupAgg) RunPartial(ctx context.Context) (Partial, Explain, error) {
	g, ex, err := p.RunContext(ctx)
	return Partial{Groups: g}, ex, err
}

// PrepareGroupAgg compiles a group-by aggregation once — choosing among
// hybrid pushdown, value masking, and key masking with the Section III-B
// cost models evaluated with each worker's bandwidth share — sizing each
// worker's hash table for the estimated group count so steady-state runs
// never rehash.
func (e *Engine) PrepareGroupAgg(q GroupAgg) (*PreparedGroupAgg, error) {
	return e.compileGroupAgg(q, techAuto)
}
