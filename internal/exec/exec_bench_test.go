package exec

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkWorkersSum measures the gang on the simplest memory-bound kernel
// — a straight sum over 8M int64 — at 1 worker and at NumCPU, so the CI
// benchmark-smoke artifact tracks scan-scaling trajectory.
func BenchmarkWorkersSum(b *testing.B) {
	const n = 8 << 20
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i & 1023)
	}
	run := func(b *testing.B, workers int) {
		w := NewWorkers(workers, 0)
		defer w.Close()
		var sink atomic.Int64
		fn := func(_, base, length int) {
			var s int64
			for _, v := range data[base : base+length] {
				s += v
			}
			sink.Add(s)
		}
		b.SetBytes(8 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Run(n, fn)
		}
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=NumCPU", func(b *testing.B) { run(b, runtime.NumCPU()) })
}
