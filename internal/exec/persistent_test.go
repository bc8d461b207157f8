package exec

import (
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

// TestWorkersZeroAlloc is the allocation regression the gang exists for:
// a scan on a warmed gang must not allocate, at one worker and several.
func TestWorkersZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := NewWorkers(workers, vec.TileSize)
		parts := make([]atomic.Int64, workers)
		n := 8 * vec.TileSize
		fn := func(worker, base, length int) {
			parts[worker].Add(int64(length))
		}
		w.Run(n, fn) // warm: first Run grows goroutine stacks
		allocs := testing.AllocsPerRun(100, func() {
			w.Run(n, fn)
		})
		if allocs != 0 {
			t.Errorf("workers=%d: %.1f allocs per scan, want 0", workers, allocs)
		}
		w.Close()
	}
}
