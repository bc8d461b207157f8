package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
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

	// stop, when non-nil, is polled before every morsel and partition
	// claim: once it reports true workers stop claiming and the scan winds
	// down within one morsel per worker. This is the cooperative
	// cancellation hook RunCtx installs from a context; the gang's
	// wake/done protocol always completes normally, so a canceled scan
	// leaves the gang and the caller's per-worker state reusable.
	stop func() bool

	// Two-phase job state (RunTwoPhase): a non-nil p2 makes every woken
	// worker rendezvous at bar after draining the morsel counter, then
	// claim partition indices from next2. The barrier is what lets phase 2
	// read state phase 1 wrote on other workers.
	p2    func(worker, part int)
	parts int
	next2 atomic.Int64
	bar   sync.WaitGroup

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
// job (one or two phases), report done, repeat.
func (w *Workers) park(id int) {
	for {
		select {
		case <-w.quit:
			return
		case <-w.wake[id]:
			w.work(id)
			w.done.Done()
		}
	}
}

// work executes one worker's share of the posted job: the morsel phase,
// then — for two-phase jobs — the barrier and the partition phase.
func (w *Workers) work(id int) {
	w.drain(id)
	if w.p2 != nil {
		w.bar.Done()
		w.bar.Wait()
		w.drainParts(id)
	}
}

// drainParts claims and executes partition indices until exhausted or
// stopped.
func (w *Workers) drainParts(id int) {
	for {
		if w.stop != nil && w.stop() {
			return
		}
		i := int(w.next2.Add(1)) - 1
		if i >= w.parts {
			return
		}
		w.p2(id, i)
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
	w.p2 = nil
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

// noopMorsel is the phase-1 stand-in for partition-only jobs (RunParts):
// with zero rows the morsel counter is exhausted immediately, so it is
// never invoked; it only keeps w.fn non-nil for the workers.
func noopMorsel(worker, base, length int) {}

// RunTwoPhase is the radix-partitioned gang primitive. It splits [0, n)
// into morsels and invokes phase1 per morsel exactly like Run; then,
// after an in-gang barrier that every participating worker passes only
// once all morsels are done, it invokes phase2 once per partition index
// in [0, parts), claimed dynamically. The barrier gives phase2 callbacks
// a happens-after edge over every phase1 callback, so phase 2 may read
// per-worker state phase 1 wrote on any worker (the partition buffers).
// Workers stay woken across the barrier — one wake token and one done
// signal per worker covers both phases. The returned duration is the
// wall time of phase 1 (first claim to barrier release), which the
// engine reports as Explain.PartitionTime.
func (w *Workers) RunTwoPhase(n int, phase1 func(worker, base, length int), parts int, phase2 func(worker, part int)) time.Duration {
	return w.RunTwoPhaseCtx(nil, n, phase1, parts, phase2)
}

// RunTwoPhaseCtx is RunTwoPhase with cooperative cancellation, polled
// before every morsel and partition claim. The in-gang barrier between
// the phases always completes — a canceled worker still reports to it —
// so cancellation can never wedge the gang.
func (w *Workers) RunTwoPhaseCtx(ctx context.Context, n int, phase1 func(worker, base, length int), parts int, phase2 func(worker, part int)) time.Duration {
	if parts <= 0 {
		w.RunCtx(ctx, n, phase1)
		return 0
	}
	w.stop = StopFunc(ctx)
	if phase1 == nil {
		phase1 = noopMorsel
	}
	m := w.morsel
	morsels := 0
	if n > 0 {
		morsels = (n + m - 1) / m
	}
	active := w.n
	jobs := morsels
	if parts > jobs {
		jobs = parts
	}
	if active > jobs {
		active = jobs
	}
	w.fn, w.total, w.morsels = phase1, n, morsels
	w.p2, w.parts = phase2, parts
	w.next.Store(0)
	w.next2.Store(0)
	w.bar.Add(active)
	if active > 1 {
		w.done.Add(active - 1)
		for i := 1; i < active; i++ {
			w.wake[i] <- struct{}{}
		}
	}
	// Worker 0 inline, with phase-1 timing: when its barrier Wait returns,
	// every worker has finished phase 1.
	start := time.Now()
	w.drain(0)
	w.bar.Done()
	w.bar.Wait()
	phase1Time := time.Since(start)
	w.drainParts(0)
	if active > 1 {
		w.done.Wait()
	}
	w.fn, w.p2, w.stop = nil, nil, nil
	return phase1Time
}

// RunParts invokes fn once per partition index in [0, parts), claimed
// dynamically by the gang — the partition-phase half of RunTwoPhase for
// callers that need other work (a bitmap merge, a second relation's
// scan) between the phases.
func (w *Workers) RunParts(parts int, fn func(worker, part int)) {
	w.RunTwoPhase(0, nil, parts, fn)
}

// Close releases the gang's goroutines. The gang must be idle.
func (w *Workers) Close() { close(w.quit) }
