package core

import (
	"context"
	"math/bits"
	"time"

	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/ht"
)

// The compiled-plan layer. Every statement executes through one pipeline
// with one mode — compile, keep, re-run:
//
//	Prepare(spec)   — send the Select to the tile pipeline (select.go), or
//	                 lower it onto the classic group-by's hand-specialized
//	                 plan (prepare.go)
//	compile(shape)  — validate and bind expressions, sample statistics
//	                 (through the cache), evaluate the cost models, pick
//	                 the technique and the direct-vs-partitioned mode,
//	                 point the plan's kernel at the chosen technique and
//	                 allocate its buffers (worker scratch, hash tables,
//	                 bitmaps, scalar lanes)
//	run             — scan on the engine's persistent worker gang and
//	                 merge per-worker partials; no planning, no
//	                 allocation in the steady state
//
// A plan is compiled exactly once and belongs to whoever prepared it; the
// engine keeps no plans, so invalidation is the owner's business (the
// root package's statement cache pins table versions and shard epochs).
// PrepareForced is the same compile with the technique named by the
// caller and the scan sequential: forced runs measure kernel character,
// not parallel speedup.
//
// A plan's kernels are closures built with it (newGroupPlan) or methods
// bound once (PreparedSelect) over the plan's own fields. Kernels
// are the single implementation per (shape, technique); no other execution
// path exists.

// kernelFn is a morsel kernel: worker w processes rows [base, base+length).
type kernelFn = func(w, base, length int)

// techAuto asks compile to choose the technique with the cost model;
// any real Technique value forces it.
const techAuto Technique = -1

// planCore is the part of a compiled plan every shape shares: the engine,
// the worker count, the Explain record the compile filled in, the per-worker
// scratch states, and the result header.
type planCore struct {
	e      *Engine
	nw     int  // worker count the kernels run on (1 when seq)
	seq    bool // forced plans, and tile-pipeline plans whose partials do not merge exactly, scan inline
	ex     Explain
	states []workerState
	fields []OutField // set by Engine.Prepare's lowering; nil for a bare Prepare*Agg
}

// bindCore initializes the shared plan state and allocates the worker
// scratch. It returns the number of states allocated.
func (p *planCore) bindCore(e *Engine, seq bool) int {
	p.e, p.seq = e, seq
	p.nw = e.workers()
	if seq {
		p.nw = 1
	}
	p.states = make([]workerState, p.nw)
	for i := range p.states {
		p.states[i] = newWorkerState()
	}
	return p.nw
}

// Fields is the result header of a plan prepared through Engine.Prepare.
func (p *planCore) Fields() []OutField { return p.fields }

func (p *planCore) setFields(f []OutField) { p.fields = f }

// ctxErr reports the context's cancellation state; nil contexts (internal
// callers without a deadline) never cancel.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// scan runs a kernel over [0, rows): on the persistent gang normally, or
// inline on this goroutine for sequential (forced) plans. Both forms poll
// the context at morsel granularity, so a canceled scan stops within one
// morsel per worker; callers detect it via ctxErr and must then discard
// the partial state (every run resets its buffers on entry, so pooled
// resources survive an early exit intact). Callers hold e.execMu.
func (p *planCore) scan(ctx context.Context, rows int, kernel kernelFn) {
	if p.seq {
		m := exec.DefaultMorselRows
		for base := 0; base < rows; base += m {
			if ctxErr(ctx) != nil {
				return
			}
			length := rows - base
			if length > m {
				length = m
			}
			kernel(0, base, length)
		}
		return
	}
	p.e.steadyLocked(p.nw).RunCtx(ctx, rows, kernel)
}

// scanTwoPhase runs the partitioned two-phase form (morsel scatter,
// barrier, partition-wise fold) on the gang and returns the phase-1
// duration, polling the context like scan. Sequential plans never
// partition, so there is no inline form. Callers hold e.execMu.
func (p *planCore) scanTwoPhase(ctx context.Context, rows int, kernel kernelFn, parts int, phase2 func(w, part int)) time.Duration {
	return p.e.steadyLocked(p.nw).RunTwoPhaseCtx(ctx, rows, kernel, parts, phase2)
}

// sumVariants folds every worker's kernel-variant counters into the
// Explain record and clears them for the next run. Runs call it after
// their scan phases; merge-side counts bumped on the caller's goroutine
// land in states[0].ctr before the call, so one fold covers everything.
func (p *planCore) sumVariants() {
	p.ex.Variants.Reset()
	for i := range p.states {
		p.ex.Variants.Add(p.states[i].ctr)
		p.states[i].ctr.Reset()
	}
}

// compiled stamps the compile's cost into the Explain: its wall time since
// start and, inside it, the time its statistics lookups took.
func (p *planCore) compiled(start time.Time, stats time.Duration) {
	p.ex.PrepareTime, p.ex.StatsTime = time.Since(start), stats
}

// snapshot copies the Explain for return and zeroes the one-execution
// counters — the compile's allocations and its cost — so replays report a
// settled steady state.
func (p *planCore) snapshot() Explain {
	ex := p.ex
	p.settle()
	return ex
}

func (p *planCore) settle() {
	p.ex.FreshAllocs, p.ex.PrepareTime, p.ex.StatsTime = 0, 0, 0
}

// canceled settles a plan after a canceled run and passes the context
// error through: the one-execution counters are consumed exactly as
// snapshot does, so the next (successful) run reports the steady state —
// a cold compile whose first execution was canceled does not re-bill its
// fresh allocations.
func (p *planCore) canceled(err error) error {
	p.settle()
	return err
}

// GroupResult is a reusable grouped-aggregation answer: the groups as
// interleaved (key, sum) pairs with keys ascending. The backing array is
// owned by the compiled plan and overwritten by its next run. The
// interleaved layout is deliberate: it is the row layout the query layer
// serves, so a cached statement's result rows alias this array directly —
// no unzip into parallel arrays, no re-interleave on materialization.
type GroupResult struct {
	// Flat holds group i's key at Flat[2i] and its sum at Flat[2i+1].
	Flat []int64
}

// Len returns the number of groups.
func (g *GroupResult) Len() int { return len(g.Flat) / 2 }

// Key returns group i's key.
func (g *GroupResult) Key(i int) int64 { return g.Flat[2*i] }

// Sum returns group i's aggregate.
func (g *GroupResult) Sum(i int) int64 { return g.Flat[2*i+1] }

// groupEmit collects a group-shape plan's merge output as interleaved
// (key, sum) pairs and materializes it sorted. Both buffers persist
// across runs.
type groupEmit struct {
	out     GroupResult
	pairs   []int64 // interleaved (key, sum) pairs awaiting the final sort
	scratch []int64 // radix-sort ping-pong buffer

	// Rank-placement buffers (see rankSort); sized by occupied key span,
	// not result size, and persistent like the others.
	rankBits []uint64
	rankBase []int32
}

func (g *groupEmit) reset() { g.pairs = g.pairs[:0] }

func (g *groupEmit) add(k, v int64) { g.pairs = append(g.pairs, k, v) }

// finish sorts the collected pairs by key; the result aliases the pair
// buffer — the sorted interleaved pairs ARE the answer.
func (g *groupEmit) finish() {
	g.sortPairs()
	g.out.Flat = g.pairs
}

// finishCombine is finish for inputs holding per-worker partials: after
// the sort, runs of equal keys (the same group aggregated by different
// workers) are summed in place by one sequential compaction pass. This
// replaces hash-table merging for the direct multi-worker path: a merge
// probes the destination table once per source group — random DRAM
// traffic that serializes — while the sort streams every pass, so
// combining duplicates costs almost nothing over the sort the emission
// already pays for.
func (g *groupEmit) finishCombine() {
	g.sortPairs()
	w := 0
	for i := 0; i < len(g.pairs); i += 2 {
		if w > 0 && g.pairs[w-2] == g.pairs[i] {
			g.pairs[w-1] += g.pairs[i+1]
		} else {
			g.pairs[w] = g.pairs[i]
			g.pairs[w+1] = g.pairs[i+1]
			w += 2
		}
	}
	g.out.Flat = g.pairs[:w]
}

// finishFrom is finish for results already collected into per-partition
// buffers (the radix paths' phase-2 emission). Concatenating those
// buffers into one array first would stream the whole result through
// memory once more — at 1M groups a 16 MB write plus the sort's 16 MB
// re-read — so instead the radix sort's first scatter pass reads the
// partition buffers in place, and the gather into the pair buffer IS the
// first sorting pass. Radix partitions own their keys exclusively, so no
// duplicate-combining is needed.
func (g *groupEmit) finishFrom(srcs [][]int64) {
	total := 0
	for _, s := range srcs {
		total += len(s)
	}
	n := total / 2
	if cap(g.pairs) < total {
		// Same slack rationale as the scratch buffer in sortPairs.
		g.pairs = make([]int64, 0, total+total/8)
	}
	if n < 512 {
		g.pairs = g.pairs[:0]
		for _, s := range srcs {
			g.pairs = append(g.pairs, s...)
		}
		g.finish()
		return
	}
	g.pairs = g.pairs[:total]
	lo, hi := int64(0), int64(0)
	first := true
	for _, s := range srcs {
		for i := 0; i < len(s); i += 2 {
			k := s[i]
			if first {
				lo, hi = k, k
				first = false
			} else if k < lo {
				lo = k
			} else if k > hi {
				hi = k
			}
		}
	}
	span := uint64(hi) - uint64(lo)
	// Dense-enough key ranges take the rank-placement path: one pass
	// instead of one per live digit. The 8n bound keeps the bitmap at
	// most one byte per pair — cache-resident next to 16 bytes of pair
	// data per pair.
	if span <= 8*uint64(n) {
		if g.rankSort(srcs, lo, int(span>>6)+1, n, total) {
			return
		}
	}
	passes := 0
	for s := span; s > 0; s >>= radixBits {
		passes++
	}
	if cap(g.scratch) < total {
		g.scratch = make([]int64, total+total/8)
	}
	// One read of the partition buffers builds every live pass's histogram.
	var hist [radixPasses][radixBuckets]int32
	for _, s := range srcs {
		for i := 0; i < len(s); i += 2 {
			u := uint64(s[i]) - uint64(lo)
			for p := 0; p < passes; p++ {
				hist[p][(u>>(uint(p)*radixBits))&(radixBuckets-1)]++
			}
		}
	}
	live := 0
	var isLive [radixPasses]bool
	for pass := 0; pass < passes; pass++ {
		h := &hist[pass]
		isLive[pass] = true
		for _, c := range h {
			if int(c) == n {
				isLive[pass] = false
				break
			}
		}
		if isLive[pass] {
			live++
		}
	}
	if live == 0 {
		// Nothing to sort (all keys share every digit): plain concatenation.
		g.pairs = g.pairs[:0]
		for _, s := range srcs {
			g.pairs = append(g.pairs, s...)
		}
		g.out.Flat = g.pairs
		return
	}
	// The first live pass gathers from the partition buffers; the rest
	// ping-pong between pairs and scratch. Choose the first target so the
	// final pass always lands in pairs — the buffer identity the query
	// cache's steady-state alias check keys on.
	a, b := g.pairs[:total], g.scratch[:total]
	dst := a
	if live%2 == 0 {
		dst = b
	}
	firstPass := 0
	for !isLive[firstPass] {
		firstPass++
	}
	h := &hist[firstPass]
	sum := int32(0)
	for i := range h {
		h[i], sum = sum, sum+h[i]
	}
	shift := uint(firstPass) * radixBits
	for _, s := range srcs {
		for i := 0; i < len(s); i += 2 {
			bk := ((uint64(s[i]) - uint64(lo)) >> shift) & (radixBuckets - 1)
			o := int(h[bk]) * 2
			dst[o] = s[i]
			dst[o+1] = s[i+1]
			h[bk]++
		}
	}
	src := dst
	if &src[0] == &a[0] {
		dst = b
	} else {
		dst = a
	}
	for pass := firstPass + 1; pass < passes; pass++ {
		if !isLive[pass] {
			continue
		}
		h := &hist[pass]
		sum := int32(0)
		for i := range h {
			h[i], sum = sum, sum+h[i]
		}
		shift := uint(pass) * radixBits
		for i := 0; i < len(src); i += 2 {
			bk := ((uint64(src[i]) - uint64(lo)) >> shift) & (radixBuckets - 1)
			o := int(h[bk]) * 2
			dst[o] = src[i]
			dst[o+1] = src[i+1]
			h[bk]++
		}
		src, dst = dst, src
	}
	if &src[0] != &g.pairs[0] {
		g.pairs, g.scratch = src, g.pairs[:cap(g.pairs)]
		g.pairs = g.pairs[:total]
	}
	g.out.Flat = g.pairs
}

// rankSort places each (key, sum) pair directly at its key's final rank,
// read from a bitmap of present keys: an exclusive prefix sum of per-word
// popcounts gives the rank of each word's first key, and a masked popcount
// inside the word finishes the lookup. Phase-2 emissions hold globally
// unique keys — radix partitions are key-disjoint and a partition table
// emits each group once — so ranks are a bijection and one placement pass
// replaces every radix scatter: at 1M groups the radix route streams the
// 16 MB pair set five times (histogram plus two read+write passes) while
// this route reads it twice and writes it once, with the bitmap and rank
// bases staying cache-resident beside it. Returns false, leaving pairs
// untouched, if a duplicate key disproves the uniqueness precondition
// (the caller falls through to the general sort).
func (g *groupEmit) rankSort(srcs [][]int64, lo int64, words, n, total int) bool {
	if cap(g.rankBits) < words {
		g.rankBits = make([]uint64, words+words/8)
		g.rankBase = make([]int32, cap(g.rankBits))
	}
	bm := g.rankBits[:words]
	base := g.rankBase[:words]
	clear(bm)
	for _, s := range srcs {
		for i := 0; i < len(s); i += 2 {
			u := uint64(s[i]) - uint64(lo)
			bm[u>>6] |= uint64(1) << (u & 63)
		}
	}
	sum := int32(0)
	for i, w := range bm {
		base[i] = sum
		sum += int32(bits.OnesCount64(w))
	}
	if int(sum) != n {
		return false // duplicate keys: not a disjoint-partition emission
	}
	dst := g.pairs[:total]
	for _, s := range srcs {
		for i := 0; i < len(s); i += 2 {
			u := uint64(s[i]) - uint64(lo)
			w := u >> 6
			r := int(base[w]) + bits.OnesCount64(bm[w]&(uint64(1)<<(u&63)-1))
			dst[2*r] = s[i]
			dst[2*r+1] = s[i+1]
		}
	}
	g.out.Flat = dst
	return true
}

// Radix-sort geometry: 11-bit digits, so a pass streams through 2048
// counters (8 KB, L1-resident) and a 20-bit group-key space sorts in two
// passes where bytewise digits would take three.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixPasses  = (64 + radixBits - 1) / radixBits
)

// sortPairs orders g.pairs (interleaved (key, sum) pairs) by key
// ascending. Large results use an LSD radix sort: at 1M groups a
// comparison sort spends half the query's wall time on cache-missing
// partition exchanges, while the radix passes stream sequentially. Keys
// are biased by the minimum so the digit width adapts to the occupied
// key range, not the type width — a 0..1M key space needs two passes, a
// 0..1000 space one — and the bias makes negative keys order correctly
// as unsigned distances. The scratch buffer persists in the plan, so
// steady-state runs stay allocation-free.
func (g *groupEmit) sortPairs() {
	n := len(g.pairs) / 2
	if n < 512 {
		// Below the radix crossover the histogram passes cost more than
		// the comparison sort they replace. Insertion over the flat pair
		// layout: in place, allocation-free, and n is small.
		for i := 2; i < len(g.pairs); i += 2 {
			k, v := g.pairs[i], g.pairs[i+1]
			j := i
			for j > 0 && g.pairs[j-2] > k {
				g.pairs[j], g.pairs[j+1] = g.pairs[j-2], g.pairs[j-1]
				j -= 2
			}
			g.pairs[j], g.pairs[j+1] = k, v
		}
		return
	}
	lo, hi := g.pairs[0], g.pairs[0]
	for i := 0; i < len(g.pairs); i += 2 {
		if k := g.pairs[i]; k < lo {
			lo = k
		} else if k > hi {
			hi = k
		}
	}
	// uint64 subtraction gives the true distance even when hi-lo
	// overflows int64.
	span := uint64(hi) - uint64(lo)
	passes := 0
	for s := span; s > 0; s >>= radixBits {
		passes++
	}
	if passes == 0 {
		return // every key equal
	}
	if cap(g.scratch) < len(g.pairs) {
		// Slack over the exact size: the pair count of a multi-worker run
		// varies with morsel claiming, and an exact-fit buffer would be
		// reallocated on every new high-water mark.
		g.scratch = make([]int64, len(g.pairs)+len(g.pairs)/8)
	}
	src, dst := g.pairs, g.scratch[:len(g.pairs)]
	// One read of the data builds the histograms of every live pass.
	var hist [radixPasses][radixBuckets]int32
	for i := 0; i < len(src); i += 2 {
		u := uint64(src[i]) - uint64(lo)
		for p := 0; p < passes; p++ {
			hist[p][(u>>(uint(p)*radixBits))&(radixBuckets-1)]++
		}
	}
	for pass := 0; pass < passes; pass++ {
		h := &hist[pass]
		// A digit position where every key shares one value needs no pass.
		trivial := false
		for _, c := range h {
			if int(c) == n {
				trivial = true
				break
			}
		}
		if trivial {
			continue
		}
		sum := int32(0)
		for i := range h {
			h[i], sum = sum, sum+h[i]
		}
		shift := uint(pass) * radixBits
		for i := 0; i < len(src); i += 2 {
			b := ((uint64(src[i]) - uint64(lo)) >> shift) & (radixBuckets - 1)
			o := int(h[b]) * 2
			dst[o] = src[i]
			dst[o+1] = src[i+1]
			h[b]++
		}
		src, dst = dst, src
	}
	// An odd number of live passes leaves the sorted run in scratch; swap
	// the buffers instead of copying.
	if len(src) > 0 && &src[0] != &g.pairs[0] {
		g.pairs, g.scratch = src, g.pairs
	}
}

// Constructors for the buffer sets a compile allocates; each set's length
// is what the compile bills to Explain.FreshAllocs.

func newTables(n, hint int) []*ht.AggTable {
	tabs := make([]*ht.AggTable, n)
	for i := range tabs {
		tabs[i] = ht.NewAggTable(1, hint)
	}
	return tabs
}

func newDenseTables(n int, lo, hi int64, packed bool) []*ht.AggTable {
	tabs := make([]*ht.AggTable, n)
	for i := range tabs {
		tabs[i] = ht.NewDenseAggTable(1, lo, hi, packed)
	}
	return tabs
}

func newPartitioners(n, parts int, pool *ht.ScatterPool) []*ht.Partitioner {
	ps := make([]*ht.Partitioner, n)
	for i := range ps {
		ps[i] = ht.NewPartitionerOn(pool, parts)
	}
	return ps
}

// Close releases the engine's persistent worker gang. The statistics cache
// is garbage-collected with the engine; Close only matters for goroutine
// hygiene when engines are created in bulk (tests, short-lived tools).
func (e *Engine) Close() {
	e.execMu.Lock()
	if e.gang != nil {
		e.gang.Close()
		e.gang = nil
	}
	e.execMu.Unlock()
}
