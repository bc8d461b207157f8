package core

import (
	"context"
	"time"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
)

// The compiled-plan layer. Every statement executes through one pipeline
// with one mode — compile, keep, re-run:
//
//	Prepare(spec)   — pin one catalog and send the Select to the tile
//	                 pipeline (select.go)
//	compile         — validate and bind expressions, sample statistics
//	                 (through the cache), evaluate the cost models, pick
//	                 the technique and the group table's form, bind the
//	                 plan's kernels and allocate its buffers (group tables,
//	                 bitmaps, scalar lanes)
//	run             — scan on the engine's persistent worker gang and
//	                 merge per-worker partials; no planning, no
//	                 allocation in the steady state
//
// A plan is compiled exactly once and belongs to whoever prepared it; the
// engine keeps no plans, so invalidation is the owner's business (the root
// package's statement cache drops a plan once the catalog no longer holds a
// table object the plan reports in Tables). PrepareForced is the
// same compile with the technique named by the caller and the scan on one
// worker: forced runs measure kernel character, not parallel speedup.
//
// A plan's kernels are methods bound once over the plan's own fields, the
// single implementation per technique; no other execution path exists.

// kernelFn is a morsel kernel: worker w processes rows [base, base+length).
type kernelFn = func(w, base, length int)

// techAuto asks compile to choose the technique with the cost model;
// any real Technique value forces it.
const techAuto Technique = -1

// Fields is the result header.
func (p *PreparedSelect) Fields() expr.Fields { return p.fields }

// Tables lists the table objects the plan bound — the root, then each edge's
// parent — all from the one catalog its compile pinned. The plan answers for
// the current data while the catalog still holds every one of them.
func (p *PreparedSelect) Tables() []*storage.Table {
	tabs := []*storage.Table{p.root}
	for i := range p.edges {
		tabs = append(tabs, p.edges[i].parent)
	}
	return tabs
}

// scan runs a kernel over [0, rows) on p.nw workers of the engine's gang,
// which polls the context at morsel granularity, so a canceled scan stops
// within one morsel per worker; callers detect it via ctx.Err() and must
// then discard the partial state (every run resets its buffers on entry, so
// pooled resources survive an early exit intact). Callers hold e.execMu.
func (p *PreparedSelect) scan(ctx context.Context, rows int, kernel kernelFn) {
	p.e.gangLocked(p.nw).RunCtx(ctx, rows, p.nw, kernel)
}

// sumVariants folds the plan's workers' kernel-variant counters into the
// Explain record and clears them for the next run. Runs call it after
// their scan phases; merge-side counts bumped on the caller's goroutine
// land in worker 0's counters before the call, so one fold covers everything.
func (p *PreparedSelect) sumVariants() {
	p.ex.Variants.Reset()
	for _, s := range p.e.scratch[:p.nw] {
		p.ex.Variants.Add(&s.ctr)
		s.ctr.Reset()
	}
}

// compiled stamps the compile's cost into the Explain: its wall time since
// start and, inside it, the time its statistics lookups took.
func (p *PreparedSelect) compiled(start time.Time, stats time.Duration) {
	p.ex.PrepareTime, p.ex.StatsTime = time.Since(start), stats
}

// settle zeroes the one-execution counters — the compile's allocations and
// its cost — once a run has reported them, or was canceled before it could:
// replays report a settled steady state, and a cold compile whose first
// execution was canceled does not re-bill its fresh allocations.
func (p *PreparedSelect) settle() {
	p.ex.FreshAllocs, p.ex.PrepareTime, p.ex.StatsTime = 0, 0, 0
}

// groupEmit holds interleaved (order key, value) pairs and sorts them by
// key: a hashed table's groups on their way out, and the ranks of chained
// group keys. Both buffers persist across runs.
type groupEmit struct {
	pairs   []int64 // interleaved (key, value) pairs awaiting the sort
	scratch []int64 // radix-sort ping-pong buffer
}

func (g *groupEmit) reset() { g.pairs = g.pairs[:0] }

func (g *groupEmit) add(k, v int64) { g.pairs = append(g.pairs, k, v) }

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
		// Slack over the exact size: a group count that creeps up run to
		// run would otherwise reallocate at every new high-water mark.
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
