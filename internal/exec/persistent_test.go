package exec

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// TestWorkersMatchesPool checks the parked gang covers every row in exactly
// the expected morsels, at several sizes and worker counts (the name dates
// from when a goroutine-spawning pool was the reference).
func TestWorkersMatchesPool(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		w := NewWorkers(workers, vec.TileSize)
		for _, n := range []int{0, 1, vec.TileSize, vec.TileSize + 3, 10 * vec.TileSize, 10*vec.TileSize + 1} {
			var sum atomic.Int64
			var calls atomic.Int64
			w.Run(n, func(worker, base, length int) {
				if worker < 0 || worker >= workers {
					t.Errorf("worker id %d out of range", worker)
				}
				var s int64
				for i := base; i < base+length; i++ {
					s += int64(i)
				}
				sum.Add(s)
				calls.Add(1)
			})
			want := int64(n) * int64(n-1) / 2
			if n == 0 {
				want = 0
			}
			if got := sum.Load(); got != want {
				t.Errorf("workers=%d n=%d: covered sum %d, want %d", workers, n, got, want)
			}
			wantCalls := int64((n + vec.TileSize - 1) / vec.TileSize)
			if got := calls.Load(); got != wantCalls {
				t.Errorf("workers=%d n=%d: %d morsel calls, want %d", workers, n, got, wantCalls)
			}
		}
		w.Close()
	}
}

// TestWorkersReuse runs many scans on one gang and checks the results stay
// exact — the steady-state pattern the gang exists for.
func TestWorkersReuse(t *testing.T) {
	w := NewWorkers(4, vec.TileSize)
	defer w.Close()
	n := 8 * vec.TileSize
	for rep := 0; rep < 50; rep++ {
		var parts [4]atomic.Int64
		w.Run(n, func(worker, base, length int) {
			var s int64
			for i := base; i < base+length; i++ {
				s += int64(i)
			}
			parts[worker].Add(s)
		})
		want := int64(n) * int64(n-1) / 2
		if got := parts[0].Load() + parts[1].Load() + parts[2].Load() + parts[3].Load(); got != want {
			t.Fatalf("rep %d: sum %d, want %d", rep, got, want)
		}
	}
}

// TestRunCtxWorkerCap: a scan asking for fewer workers than the gang holds
// runs on that many, ids below the cap, and still covers every row once.
func TestRunCtxWorkerCap(t *testing.T) {
	w := NewWorkers(4, vec.TileSize)
	defer w.Close()
	n := 16 * vec.TileSize
	for _, workers := range []int{1, 2, 4, 9} {
		var rows atomic.Int64
		w.RunCtx(context.Background(), n, workers, func(worker, _, length int) {
			if worker >= min(workers, 4) {
				t.Errorf("cap %d: worker id %d", workers, worker)
			}
			rows.Add(int64(length))
		})
		if rows.Load() != int64(n) {
			t.Errorf("cap %d: covered %d rows, want %d", workers, rows.Load(), n)
		}
	}
}

// TestRunCtxStopsOnCancel: workers poll the context before every claim, so a
// context canceled mid-scan stops the scan after the morsel in flight.
func TestRunCtxStopsOnCancel(t *testing.T) {
	w := NewWorkers(1, vec.TileSize)
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	w.RunCtx(ctx, 16*vec.TileSize, 1, func(int, int, int) {
		if calls++; calls == 3 {
			cancel()
		}
	})
	if calls != 3 {
		t.Errorf("%d morsels ran, want 3: the claim after cancel must not", calls)
	}
}

// TestWorkersZeroAlloc is the allocation regression the gang exists for:
// a scan on a warmed gang must not allocate, at one worker and several, with
// or without a context that can be canceled.
func TestWorkersZeroAlloc(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 4} {
		w := NewWorkers(workers, vec.TileSize)
		parts := make([]atomic.Int64, workers)
		n := 8 * vec.TileSize
		fn := func(worker, base, length int) {
			parts[worker].Add(int64(length))
		}
		w.Run(n, fn) // warm: first Run grows goroutine stacks
		if allocs := testing.AllocsPerRun(100, func() { w.Run(n, fn) }); allocs != 0 {
			t.Errorf("workers=%d: %.1f allocs per scan, want 0", workers, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { w.RunCtx(ctx, n, workers, fn) }); allocs != 0 {
			t.Errorf("workers=%d: %.1f allocs per cancelable scan, want 0", workers, allocs)
		}
		w.Close()
	}
}
