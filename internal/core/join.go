package core

import (
	"context"
	"time"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// GroupJoinAgg is a groupjoin keyed by the probe's foreign key:
//
//	select Probe.FK, sum(Agg) from Probe, Build
//	where Probe.FK = Build.PK and BuildFilter group by Probe.FK
//
// — the shape of Section III-E and micro Q5.
type GroupJoinAgg struct {
	Probe       string
	Build       string
	FK          string
	PK          string // dense primary key
	BuildFilter expr.Expr
	Agg         expr.Expr // over probe columns
}

// PreparedGroupJoinAgg is the compiled plan for a groupjoin: the eager-vs-
// traditional decision frozen, both phase kernels for the chosen path, and
// every table and bitmap the execution needs.
type PreparedGroupJoinAgg struct {
	planCore
	groupEmit
	probeRows   int
	buildRows   int
	buildFilter expr.Expr
	agg         expr.Expr
	fkCol       *storage.Column
	pkCol       *storage.Column
	eager       bool

	// Eager-aggregation path.
	tabs        []*ht.AggTable // key-addressed when ex.DenseDomain > 0
	fails       []*bitmap.Bitmap
	probeKernel kernelFn
	buildKernel kernelFn

	// Traditional path.
	keyTabs   []*ht.AggTable
	keys      *ht.AggTable
	aggKernel kernelFn

	// Radix-partitioned eager variant (see partition.go): probeKernel
	// becomes the phase-1 (fk, value) scatter through the engine's shared
	// chunk arena and phase2 folds partitions, skipping keys the merged
	// fail bitmap disqualified. Emission buffers are per partition (not
	// per worker) so warm capacities are fixed by the data, independent of
	// which worker claims which partition.
	partitioned bool
	parts       int
	parters     []*ht.Partitioner
	smalls      []*ht.AggTable
	emit        [][]int64 // indexed by partition; filled by its claiming worker
	phase2      func(w, part int)

	// The kernel menu.
	kProbeEager kernelFn
	kBuildFail  kernelFn // inverted build predicate into fail bitmaps
	kScatter    kernelFn
	kBuildTrad  kernelFn
	kAgg        kernelFn
	kFold       func(w, part int)
}

// newGJoinPlan builds an empty plan with its kernel menu.
func newGJoinPlan() *PreparedGroupJoinAgg {
	p := &PreparedGroupJoinAgg{}
	p.kProbeEager = func(w, base, length int) {
		s, tab := &p.states[w], p.tabs[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.ev.EvalInt(p.agg, expr.Rows(b, tl), s.Vals)
			p.fkCol.WidenInto(b, tl, s.Keys)
			s.ctr.Widen[int(p.fkCol.Kind)]++
			s.ctr.PrefetchProbe += uint64(tab.FoldPairs(s.Keys[:tl], s.Vals[:tl]))
		})
	}
	p.kBuildFail = func(w, base, length int) {
		// Inverted predicate marks non-qualifying groups — the parallel
		// analogue of the sequential path's hash table deletes, recorded
		// positionally in per-worker bitmaps.
		s, fail := &p.states[w], p.fails[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.buildFilter, b, tl)
			for j := 0; j < tl; j++ {
				fail.OrBit(int(p.pkCol.Get(b+j)), s.Cmp[j]^1)
			}
		})
	}
	p.kScatter = func(w, base, length int) {
		// Unconditional (fk, value) appends — the eager build aggregates
		// every probe tuple regardless of the join.
		s, pr := &p.states[w], p.parters[w]
		d := ht.PrefetchDist
		var sink uint64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.ev.EvalInt(p.agg, expr.Rows(b, tl), s.Vals)
			p.fkCol.WidenInto(b, tl, s.Keys)
			s.ctr.Widen[int(p.fkCol.Kind)]++
			for j := 0; j < tl; j++ {
				if j+d < tl {
					sink += pr.TouchAppend(s.Keys[j+d])
				}
				pr.Append(s.Keys[j], s.Vals[j])
			}
			s.ctr.PrefetchScatter += uint64(tl)
		})
		s.pf += sink
	}
	p.kBuildTrad = func(w, base, length int) {
		s, tab := &p.states[w], p.keyTabs[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.buildFilter, b, tl)
			n, d := vec.SelFromCmpAdaptive(s.Cmp[:tl], s.Idx)
			s.ctr.CountSel(d)
			for j := 0; j < n; j++ {
				tab.Lookup(p.pkCol.Get(b + int(s.Idx[j]))) // insert, not valid
			}
		})
	}
	p.kAgg = func(w, base, length int) {
		s, tab, keys := &p.states[w], p.tabs[w], p.keys
		d := ht.PrefetchDist
		var sink uint64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.ev.EvalInt(p.agg, expr.Rows(b, tl), s.Vals)
			p.fkCol.WidenInto(b, tl, s.Keys)
			s.ctr.Widen[int(p.fkCol.Kind)]++
			for j := 0; j < tl; j++ {
				if j+d < tl {
					sink += tab.Touch(s.Keys[j+d])
				}
				if fk := s.Keys[j]; keys.Contains(fk) {
					tab.Add(tab.Lookup(fk), 0, s.Vals[j])
				}
			}
			s.ctr.PrefetchProbe += uint64(tl)
		})
		s.pf += sink
	}
	p.kFold = func(w, part int) {
		s, tab, fail := &p.states[w], p.smalls[w], p.fails[0]
		s.ctr.PrefetchProbe += uint64(foldPartition(tab, p.parters, part))
		tab.ForEach(false, func(key int64, slot int) {
			if key >= 0 && key < int64(fail.Len()) && fail.Test(int(key)) {
				return
			}
			p.emit[part] = append(p.emit[part], key, tab.Acc(slot, 0))
		})
	}
	return p
}

// PrepareGroupJoinAgg compiles a groupjoin once for the caller to keep and
// re-run, freezing the eager-vs-traditional decision (Section III-E cost
// models evaluated with each worker's bandwidth share) and — on the eager
// side, itself a group-by of the probe into |Build| groups — the radix
// partition decision. It takes the execution lock: a partitioned compile
// may grow the shared scatter arena, which must not happen under a running
// scan.
func (e *Engine) PrepareGroupJoinAgg(q GroupJoinAgg) (*PreparedGroupJoinAgg, error) {
	start := time.Now()
	probe := e.DB.Table(q.Probe)
	build := e.DB.Table(q.Build)
	if probe == nil {
		return nil, errNoTable(q.Probe)
	}
	if build == nil {
		return nil, errNoTable(q.Build)
	}
	fkCol := probe.Column(q.FK)
	if fkCol == nil {
		return nil, errNoColumn(q.Probe, q.FK)
	}
	pkCol := build.Column(q.PK)
	if pkCol == nil {
		return nil, errNoColumn(q.Build, q.PK)
	}
	if q.BuildFilter != nil {
		if err := expr.Bind(q.BuildFilter, expr.Columns(build)); err != nil {
			return nil, err
		}
	}
	if err := expr.Bind(q.Agg, expr.Columns(probe)); err != nil {
		return nil, err
	}
	e.execMu.Lock()
	defer e.execMu.Unlock()
	p := newGJoinPlan()
	fresh := p.bindCore(e, false)
	rows := probe.Rows()
	p.probeRows, p.buildRows = rows, build.Rows()
	p.buildFilter, p.agg = q.BuildFilter, q.Agg
	p.fkCol, p.pkCol = fkCol, pkCol

	params := e.Params.ForWorkers(p.nw)
	comp := expr.CompCost(q.Agg, params)
	statsStart := time.Now()
	selS, statsHit := e.selectivity(build, q.BuildFilter)

	// The eager path aggregates the probe side by its foreign key into one
	// group per build row. The foreign key's exact cached range is the
	// table's key domain — for keys that are build row positions, the index
	// space of the fail bitmap — and decides the table's form. The
	// traditional path builds its tables from the qualifying build keys and
	// stays hashed.
	hashedBytes := p.buildRows * ht.HashedSlotBytes(1)
	lo, hi := int64(1), int64(0) // nothing known about an empty column
	if rows > 0 {
		lo, hi = e.colRange(q.Probe, fkCol)
	}
	statsTime := time.Since(statsStart)
	form, htBytes, domain, packed := tableForm(params, lo, hi, 1, p.buildRows, rows, addBound(q.Agg, nil))
	_, gj, _ := params.ChooseGroupjoin(p.buildRows, selS, rows, 1.0, selS, comp, hashedBytes)
	_, _, ea := form.ChooseGroupjoin(p.buildRows, selS, rows, 1.0, selS, comp, htBytes)
	p.eager = ea < gj
	p.ex = Explain{
		Selectivity: selS,
		CompCost:    comp,
		Groups:      p.buildRows,
		HTBytes:     hashedBytes,
		Workers:     p.nw,
		StatsCached: statsHit,
		PlanCached:  true,
		Costs:       map[string]float64{"groupjoin": gj, "eager-aggregation": ea},
	}

	if p.eager {
		p.ex.Technique = TechEagerAggregation
		p.fails = newBitmaps(p.nw, p.buildRows)
		fresh += p.nw
		p.buildKernel = p.kBuildFail

		// The eager build is a group-by of the probe side into |Build|
		// groups; the radix decision applies to it, the partitioned
		// alternative sized and priced from the hashed footprint (see
		// compileGroupAgg).
		probeDirect := float64(rows) * form.BestAggPerTuple(rows, 1.0, comp, 1, htBytes)
		p.ex.Costs["hashed"] = float64(rows) * params.BestAggPerTuple(rows, 1.0, comp, 1, hashedBytes)
		if domain > 0 {
			p.ex.Costs["dense"] = probeDirect
		}
		usePart, parts, partCost := choosePartition(e.Partition, params, rows, comp, hashedBytes, probeDirect)
		if parts > 1 {
			p.ex.Costs["partitioned"] = partCost
		}
		switch {
		case usePart:
			p.partitioned, p.parts = true, parts
			p.ex.Partitioned, p.ex.Partitions = true, parts
			pool, f := e.ensureScatterLocked(rows, p.nw, parts)
			p.parters = newPartitioners(p.nw, parts, pool)
			p.smalls = newTables(p.nw, subTableHint(p.buildRows, parts))
			p.emit = make([][]int64, parts)
			fresh += f + 2*p.nw
			p.probeKernel = p.kScatter
			p.phase2 = p.kFold
		case domain > 0:
			p.ex.DenseDomain, p.ex.HTBytes = domain, htBytes
			p.tabs = newDenseTables(p.nw, lo, hi, packed)
			fresh += p.nw
			p.probeKernel = p.kProbeEager
		default:
			p.tabs = newTables(p.nw, p.buildRows)
			fresh += p.nw
			p.probeKernel = p.kProbeEager
		}
	} else {
		p.ex.Technique = TechHybrid
		hint := int(selS*float64(p.buildRows)) + 1
		p.keyTabs = newTables(p.nw, hint)
		p.keys = ht.NewAggTable(1, hint)
		p.tabs = newTables(p.nw, hint)
		fresh += 2*p.nw + 1
		p.buildKernel = p.kBuildTrad
		p.aggKernel = p.kAgg
	}
	p.ex.FreshAllocs = fresh
	p.compiled(start, statsTime)
	return p, nil
}

// runRadixEager: fail bitmap first — phase-2 emission reads it — then one
// scanTwoPhase covering scatter, barrier, and partition-wise fold.
func (p *PreparedGroupJoinAgg) runRadixEager(ctx context.Context) error {
	for _, pr := range p.parters {
		pr.Reset()
	}
	p.e.scatter.Reset()
	for i := range p.emit {
		p.emit[i] = p.emit[i][:0]
	}
	for _, bm := range p.fails {
		bm.Reset(p.buildRows)
	}
	grows0 := growsSum(p.smalls)
	start := time.Now()
	p.scan(ctx, p.buildRows, p.buildKernel)
	p.ex.ScanTime = time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return err
	}
	start = time.Now()
	p.fails[0].OrInto(p.fails[1:]...)
	p.ex.MergeTime = time.Since(start)

	start = time.Now()
	p.ex.PartitionTime = p.scanTwoPhase(ctx, p.probeRows, p.probeKernel, p.parts, p.phase2)
	p.ex.ScanTime += time.Since(start)
	p.ex.HTGrows = int(growsSum(p.smalls) - grows0)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	p.finishFrom(p.emit)
	p.sumVariants()
	p.ex.MergeTime += time.Since(start)
	return nil
}

// runEager aggregates the probe side unconditionally into per-worker
// tables while the inverted build predicate marks non-qualifying
// positions; the merge folds the tables, skipping marked keys.
func (p *PreparedGroupJoinAgg) runEager(ctx context.Context) error {
	for _, tab := range p.tabs {
		tab.Reset()
	}
	for _, bm := range p.fails {
		bm.Reset(p.buildRows)
	}
	grows0 := growsSum(p.tabs)
	start := time.Now()
	p.scan(ctx, p.probeRows, p.probeKernel)
	p.scan(ctx, p.buildRows, p.buildKernel)
	p.ex.ScanTime = time.Since(start)
	p.ex.HTGrows = int(growsSum(p.tabs) - grows0)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	fail := p.fails[0]
	fail.OrInto(p.fails[1:]...)
	merged := p.tabs[0]
	for _, tab := range p.tabs[1:] {
		p.states[0].ctr.PrefetchProbe += merged.MergeFrom(tab)
	}
	p.reset()
	merged.ForEach(false, func(key int64, s int) {
		// Keys without a build row in [0, |Build|) mirror the sequential
		// path: nothing ever deletes them.
		if key >= 0 && key < int64(fail.Len()) && fail.Test(int(key)) {
			return
		}
		p.add(key, merged.Acc(s, 0))
	})
	if p.ex.DenseDomain > 0 {
		p.out.Flat = p.pairs // the key-addressed walk was in key order
	} else {
		p.finish()
	}
	p.sumVariants()
	p.ex.MergeTime = time.Since(start)
	return nil
}

// runTraditional inserts qualifying build keys into per-worker key tables,
// merges them into one table probe workers consult read-only, and
// aggregates matches into per-worker tables merged at the end.
func (p *PreparedGroupJoinAgg) runTraditional(ctx context.Context) error {
	for _, tab := range p.keyTabs {
		tab.Reset()
	}
	p.keys.Reset()
	for _, tab := range p.tabs {
		tab.Reset()
	}
	grows0 := growsSum(p.keyTabs) + growsSum(p.tabs) + p.keys.Grows
	start := time.Now()
	p.scan(ctx, p.buildRows, p.buildKernel)
	p.ex.ScanTime = time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	for _, tab := range p.keyTabs {
		// Inserted-only groups carry no valid flag; visit them all.
		tab.ForEach(true, func(key int64, _ int) { p.keys.Lookup(key) })
	}
	p.ex.MergeTime = time.Since(start)

	start = time.Now()
	p.scan(ctx, p.probeRows, p.aggKernel)
	p.ex.ScanTime += time.Since(start)
	p.ex.HTGrows = int(growsSum(p.keyTabs) + growsSum(p.tabs) + p.keys.Grows - grows0)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	merged := p.tabs[0]
	for _, tab := range p.tabs[1:] {
		p.states[0].ctr.PrefetchProbe += merged.MergeFrom(tab)
	}
	p.reset()
	merged.ForEach(false, func(key int64, s int) {
		p.add(key, merged.Acc(s, 0))
	})
	p.finish()
	p.sumVariants()
	p.ex.MergeTime += time.Since(start)
	return nil
}

// Run executes the prepared groupjoin and returns the reused result.
func (p *PreparedGroupJoinAgg) Run() (*GroupResult, Explain) {
	res, ex, _ := p.RunContext(nil)
	return res, ex
}

// RunContext executes the prepared groupjoin under the context's deadline;
// see PreparedSelect.RunContext for the cancellation contract.
func (p *PreparedGroupJoinAgg) RunContext(ctx context.Context) (*GroupResult, Explain, error) {
	p.e.execMu.Lock()
	defer p.e.execMu.Unlock()
	var err error
	switch {
	case p.partitioned:
		err = p.runRadixEager(ctx)
	case p.eager:
		err = p.runEager(ctx)
	default:
		err = p.runTraditional(ctx)
	}
	if err != nil {
		return nil, Explain{}, p.canceled(err)
	}
	return &p.out, p.snapshot(), nil
}

// RunPartial implements Plan.
func (p *PreparedGroupJoinAgg) RunPartial(ctx context.Context) (Partial, Explain, error) {
	g, ex, err := p.RunContext(ctx)
	return Partial{Groups: g}, ex, err
}
