package exec

import (
	"sync/atomic"
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

func TestRunCoversEveryRowOnce(t *testing.T) {
	for _, tc := range []struct {
		n, workers, morsel int
	}{
		{0, 4, 0},                         // empty relation: no calls at all
		{1, 4, 0},                         // single row
		{100, 1, 0},                       // gang of one: inline on the caller
		{DefaultMorselRows - 1, 8, 0},     // single short morsel
		{DefaultMorselRows, 8, 0},         // exactly one morsel
		{DefaultMorselRows + 1, 8, 0},     // one full + one short
		{10 * DefaultMorselRows, 3, 0},    // more morsels than workers
		{100_000, 16, 2 * vec.TileSize},   // tiny morsels, many workers
		{100_000, 16, vec.TileSize/2 + 1}, // morsel rounded up to TileSize
		{100_000, 7, 3 * vec.TileSize},    // worker and morsel counts coprime
	} {
		w := NewWorkers(tc.workers, tc.morsel)
		m := resolveMorselRows(tc.morsel)
		seen := make([]int32, tc.n)
		w.Run(tc.n, func(worker, base, length int) {
			if worker < 0 || worker >= w.NumWorkers() {
				t.Errorf("worker id %d out of range", worker)
			}
			if base%m != 0 || length > m {
				t.Errorf("morsel [%d, %d) not aligned to %d", base, base+length, m)
			}
			for i := base; i < base+length; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		w.Close()
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d workers=%d morsel=%d: row %d covered %d times",
					tc.n, tc.workers, tc.morsel, i, c)
			}
		}
	}
}

func TestMorselRowsRoundedToTileSize(t *testing.T) {
	for _, m := range []int{1, vec.TileSize - 1, vec.TileSize, vec.TileSize + 1, 3 * vec.TileSize} {
		w := NewWorkers(1, m)
		if got := w.morsel; got%vec.TileSize != 0 || got < m {
			t.Errorf("morselRows=%d resolved to %d", m, got)
		}
		w.Close()
	}
	w := NewWorkers(1, 0)
	defer w.Close()
	if w.morsel != DefaultMorselRows {
		t.Errorf("default morsel = %d, want %d", w.morsel, DefaultMorselRows)
	}
}

func TestNumWorkersDefault(t *testing.T) {
	for want, n := range map[int]int{1: 0, 3: 3} { // below one clamps to one
		w := NewWorkers(n, 0)
		if got := w.NumWorkers(); got != want {
			t.Errorf("NewWorkers(%d).NumWorkers() = %d, want %d", n, got, want)
		}
		w.Close()
	}
}
