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

	// Per-scan job state: written by Run before the wake tokens are sent,
	// read by workers only between wake and done (the channel send/receive
	// pair orders the accesses).
	fn      func(worker, base, length int)
	total   int
	morsels int
	next    atomic.Int64

	// stop, when non-nil, is polled before every morsel claim: once it
	// reports true workers stop claiming and the scan winds down within one
	// morsel per worker. This is the cooperative
	// cancellation hook RunCtx installs from a context; the gang's
	// wake/done protocol always completes normally, so a canceled scan
	// leaves the gang and the caller's per-worker state reusable.
	stop func() bool

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

// drain claims and executes morsels until the counter is exhausted or
// stopped.
func (w *Workers) drain(id int) {
	m := w.morsel
	for {
		if w.stop != nil && w.stop() {
			return
		}
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

// StopFunc converts a context into the per-morsel stop predicate the
// gang polls: nil for a context that can never be canceled (so the hot
// path stays branch-predicted away), ctx.Err-backed otherwise.
func StopFunc(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// Run splits [0, n) into morsels and invokes fn once per morsel with the
// claiming worker's id in [0, NumWorkers()) and the morsel's base row and
// length. Workers claim morsels dynamically, so which worker sees which
// morsel varies run to run; callers keep all mutable state private per
// worker id and merge after Run returns. Only as many helpers are woken as
// there are morsels; with one morsel (or a gang of one) fn runs entirely on
// the calling goroutine.
func (w *Workers) Run(n int, fn func(worker, base, length int)) {
	w.RunCtx(nil, n, fn)
}

// RunCtx is Run with cooperative cancellation: every worker polls the
// context before each morsel claim, so a canceled or deadline-exceeded
// scan stops within one morsel per worker and returns normally — the
// caller detects cancellation via ctx.Err() and must treat the scanned
// partial state as garbage (it is reset by the next run).
func (w *Workers) RunCtx(ctx context.Context, n int, fn func(worker, base, length int)) {
	if n <= 0 {
		return
	}
	w.stop = StopFunc(ctx)
	m := w.morsel
	morsels := (n + m - 1) / m
	active := w.n
	if active > morsels {
		active = morsels
	}
	w.fn, w.total, w.morsels = fn, n, morsels
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
	w.fn, w.stop = nil, nil
}

// Close releases the gang's goroutines. The gang must be idle.
func (w *Workers) Close() { close(w.quit) }
