package exec

import (
	"context"
	"sync"
	"sync/atomic"
)

// Workers is a persistent morsel worker gang: the goroutines are spawned
// once and parked on per-worker wake channels between scans. Spawning
// goroutines per scan heap-allocates their closures and stacks, a
// steady-state tax for a repeating workload; Run reuses the parked gang, so
// the Nth scan of a prepared query performs zero allocations — the only
// per-scan traffic is one channel token per woken worker and the shared
// atomic morsel counter.
//
// A Workers gang is NOT safe for concurrent Run calls; callers (the
// engine's prepared-query path) serialize scans on it. Close releases the
// goroutines; a closed gang must not be Run again.
type Workers struct {
	n      int
	morsel int

	// Per-scan job state: written by RunCtx before the wake tokens are sent,
	// read by workers only between wake and done (the channel send/receive
	// pair orders the accesses). Every worker polls ctx before each morsel
	// claim: once it is done workers stop claiming and the scan winds down
	// within one morsel per worker. The wake/done protocol always completes
	// normally, so a canceled scan leaves the gang and the caller's
	// per-worker state reusable.
	ctx     context.Context
	fn      func(worker, base, length int)
	total   int
	morsels int
	next    atomic.Int64

	wake []chan struct{}
	done sync.WaitGroup
	quit chan struct{}
}

// NewWorkers returns a parked gang of n workers claiming morselRows-sized
// morsels (0 selects DefaultMorselRows; values round up to a full tile).
// Worker 0 is the goroutine that calls Run; n-1 helper goroutines are
// spawned parked.
func NewWorkers(n, morselRows int) *Workers {
	if n < 1 {
		n = 1
	}
	w := &Workers{
		n:      n,
		morsel: resolveMorselRows(morselRows),
		wake:   make([]chan struct{}, n),
		quit:   make(chan struct{}),
	}
	for i := 1; i < n; i++ {
		w.wake[i] = make(chan struct{}, 1)
		go w.park(i)
	}
	return w
}

// NumWorkers returns the gang size.
func (w *Workers) NumWorkers() int { return w.n }

// park is the helper goroutine loop: sleep until woken, run the posted
// scan, report done, repeat.
func (w *Workers) park(id int) {
	for {
		select {
		case <-w.quit:
			return
		case <-w.wake[id]:
			w.drain(id)
			w.done.Done()
		}
	}
}

// drain claims and executes morsels until the counter is exhausted or the
// scan's context is done.
func (w *Workers) drain(id int) {
	m := w.morsel
	for w.ctx.Err() == nil {
		i := int(w.next.Add(1)) - 1
		if i >= w.morsels {
			return
		}
		base := i * m
		length := w.total - base
		if length > m {
			length = m
		}
		w.fn(id, base, length)
	}
}

// Run splits [0, n) into morsels and invokes fn once per morsel with the
// claiming worker's id in [0, NumWorkers()) and the morsel's base row and
// length, on the whole gang and without a deadline.
func (w *Workers) Run(n int, fn func(worker, base, length int)) {
	w.RunCtx(context.Background(), n, w.n, fn)
}

// RunCtx is Run on at most workers of the gang, under ctx. Workers claim
// morsels dynamically, so which worker sees which morsel varies run to run;
// callers keep all mutable state private per worker id, which stays below
// workers, and merge after RunCtx returns. Only as many helpers are woken as
// there are morsels; with one morsel (or one worker) fn runs entirely on the
// calling goroutine. Every worker polls ctx before each morsel claim, so a
// canceled or deadline-exceeded scan stops within one morsel per worker and
// returns normally — the caller detects cancellation via ctx.Err() and must
// treat the scanned partial state as garbage (it is reset by the next run).
func (w *Workers) RunCtx(ctx context.Context, n, workers int, fn func(worker, base, length int)) {
	if n <= 0 {
		return
	}
	m := w.morsel
	morsels := (n + m - 1) / m
	active := min(workers, w.n, morsels)
	w.ctx, w.fn, w.total, w.morsels = ctx, fn, n, morsels
	w.next.Store(0)
	if active > 1 {
		w.done.Add(active - 1)
		for i := 1; i < active; i++ {
			w.wake[i] <- struct{}{}
		}
	}
	w.drain(0)
	if active > 1 {
		w.done.Wait()
	}
	w.ctx, w.fn = nil, nil
}

// Close releases the gang's goroutines. The gang must be idle.
func (w *Workers) Close() { close(w.quit) }
