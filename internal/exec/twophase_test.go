package exec

import (
	"sync/atomic"
	"testing"
)

// TestRunTwoPhaseCoverage checks every row is visited exactly once in
// phase 1 and every partition exactly once in phase 2, across worker
// counts and awkward sizes.
func TestRunTwoPhaseCoverage(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 5000, 70_000} {
			for _, parts := range []int{1, 7, 64} {
				w := NewWorkers(workers, 4096)
				rows := make([]int32, n)
				seen := make([]int32, parts)
				w.RunTwoPhase(n,
					func(worker, base, length int) {
						for i := base; i < base+length; i++ {
							atomic.AddInt32(&rows[i], 1)
						}
					},
					parts,
					func(worker, part int) {
						atomic.AddInt32(&seen[part], 1)
					})
				w.Close()
				for i, c := range rows {
					if c != 1 {
						t.Fatalf("workers=%d n=%d parts=%d: row %d visited %d times", workers, n, parts, i, c)
					}
				}
				for p, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d n=%d parts=%d: partition %d visited %d times", workers, n, parts, p, c)
					}
				}
			}
		}
	}
}

// TestRunTwoPhaseBarrier checks the happens-after edge: every phase-2
// callback must observe the writes of every phase-1 callback, on any
// worker. Phase 1 accumulates into per-worker counters; phase 2 sums them
// and must always see the full row count.
func TestRunTwoPhaseBarrier(t *testing.T) {
	const n, parts = 100_000, 32
	for _, workers := range []int{2, 4, 8} {
		w := NewWorkers(workers, 1024)
		var violations atomic.Int64
		for rep := 0; rep < 5; rep++ {
			counts := make([]int64, workers*8) // a cache line apart, plain writes: only the barrier orders them
			w.RunTwoPhase(n,
				func(worker, base, length int) {
					counts[worker*8] += int64(length)
				},
				parts,
				func(worker, part int) {
					var sum int64
					for i := 0; i < len(counts); i += 8 {
						sum += counts[i]
					}
					if sum != n {
						violations.Add(1)
					}
				})
		}
		w.Close()
		if v := violations.Load(); v != 0 {
			t.Fatalf("workers=%d: %d phase-2 callbacks ran before phase 1 finished", workers, v)
		}
	}
}

// TestRunTwoPhaseReuse interleaves one- and two-phase jobs on one gang to
// check the job-state reset between modes.
func TestRunTwoPhaseReuse(t *testing.T) {
	w := NewWorkers(4, 1024)
	defer w.Close()
	var scans, partsDone atomic.Int64
	for rep := 0; rep < 3; rep++ {
		w.Run(10_000, func(worker, base, length int) { scans.Add(int64(length)) })
		w.RunTwoPhase(10_000,
			func(worker, base, length int) { scans.Add(int64(length)) },
			16,
			func(worker, part int) { partsDone.Add(1) })
		w.RunParts(8, func(worker, part int) { partsDone.Add(1) })
	}
	if got := scans.Load(); got != 3*2*10_000 {
		t.Errorf("scanned %d rows, want %d", got, 3*2*10_000)
	}
	if got := partsDone.Load(); got != 3*(16+8) {
		t.Errorf("%d partitions done, want %d", got, 3*(16+8))
	}
}

// TestRunTwoPhaseZeroAlloc checks a warm two-phase job allocates nothing
// — the partitioned steady state depends on it.
func TestRunTwoPhaseZeroAlloc(t *testing.T) {
	w := NewWorkers(4, 1024)
	defer w.Close()
	var sink atomic.Int64
	phase1 := func(worker, base, length int) { sink.Add(int64(length)) }
	phase2 := func(worker, part int) { sink.Add(1) }
	w.RunTwoPhase(50_000, phase1, 32, phase2)
	allocs := testing.AllocsPerRun(10, func() {
		w.RunTwoPhase(50_000, phase1, 32, phase2)
	})
	if allocs != 0 {
		t.Errorf("warm RunTwoPhase allocates %.1f per run, want 0", allocs)
	}
}
