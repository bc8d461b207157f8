package swole

// Radix-partitioning benchmarks: direct vs partitioned group-by execution
// at hash-table footprints far past the cache budget — the regime the
// two-phase radix path exists for. At 1M groups the direct path's
// per-worker hashed tables are ~26MB of random-access DRAM; the radix path
// scatters (key, value) pairs sequentially and aggregates each partition
// in a cache-resident table, with no cross-worker merge. The group-by rows
// run over a sparse key (sp_k, 1M groups spread over a 256M-wide range), so
// "direct" is the hashed table the radix path is the remedy for; a dense
// key takes the key-addressed table instead, which
// BenchmarkRadixDenseDirect1M records beside them.
//
// CI publishes these as BENCH_radix.json next to the steady-state
// numbers; the partitioned/direct ratio is the headline. These are
// deliberately named BenchmarkRadix*, not BenchmarkSteady*: the direct
// variant at this scale reallocates nothing either, but the gate that
// scans BenchmarkSteady lines enforces 0 allocs/op and these runs are
// about time, not allocation.

import (
	"fmt"
	"testing"
)

const (
	radixRows   = 2_097_152
	radixGroups = 1_048_576
)

// radixDB is the 1M-group micro dataset with its sparse twin.
func radixDB(b *testing.B) *DB { return sparseKeyDB(b, radixRows, radixGroups) }

// sparseKeyDB is a micro dataset plus sp, a copy of r's aggregation columns
// under a sparse key: sp_k = 256·r_c + r_c%7 holds as many groups as r_c in
// a range 256 times as wide, which — at 100 groups or a million — no
// key-addressed table may cover.
func sparseKeyDB(b *testing.B, rows, groups int) *DB {
	b.Helper()
	d := steadyDB(b, rows, 1024, groups)
	if d.db.Table("sp") != nil {
		return d
	}
	r := d.db.MustTable("r")
	wide := func(name string) []int64 {
		v := make([]int64, r.Rows())
		r.MustColumn(name).WidenInto(0, r.Rows(), v)
		return v
	}
	k := wide("r_c")
	for i, c := range k {
		k[i] = 256*c + c%7
	}
	if err := d.CreateTable("sp", IntColumn("sp_k", k), IntColumn("sp_x", wide("r_x")), IntColumn("sp_a", wide("r_a"))); err != nil {
		b.Fatal(err)
	}
	return d
}

// benchRadix measures warm plan-cached executions of q under the given
// partition mode.
func benchRadix(b *testing.B, mode PartitionMode, workers int, q string, wantPartitioned bool) {
	b.Helper()
	d := radixDB(b)
	d.SetPartitionMode(mode)
	d.SetWorkers(workers)
	defer d.SetPartitionMode(PartitionAuto)
	defer d.SetWorkers(0)
	// Warm runs: the first compiles, samples, plans, and allocates; the
	// extras let capacity high-water marks (pair buffers, the sort
	// scratch, per-worker table sizes) converge — multi-worker runs vary
	// with morsel claiming, so one run does not see the steady state.
	_, ex, err := d.QuerySwole(q)
	if err != nil {
		b.Fatal(err)
	}
	if ex.Partitioned != wantPartitioned || ex.DenseDomain != 0 {
		b.Fatalf("Partitioned=%v (Partitions=%d) DenseDomain=%d, want Partitioned=%v on hashed tables",
			ex.Partitioned, ex.Partitions, ex.DenseDomain, wantPartitioned)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := d.QuerySwole(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := d.QuerySwole(q)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += int64(res.NumRows())
	}
}

// BenchmarkRadixGroupAgg1M is the acceptance benchmark: a 1M-group
// aggregation over a sparse key at 4 workers, hashed-direct vs
// radix-partitioned.
func BenchmarkRadixGroupAgg1M(b *testing.B) {
	q := "select sp_k, sum(sp_a) from sp where sp_x < 50 group by sp_k"
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("direct/workers%d", workers), func(b *testing.B) {
			benchRadix(b, PartitionOff, workers, q, false)
		})
		b.Run(fmt.Sprintf("partitioned/workers%d", workers), func(b *testing.B) {
			benchRadix(b, PartitionOn, workers, q, true)
		})
	}
}

// BenchmarkRadixDenseDirect1M is the same aggregation over the dense key
// r_c as the cost model runs it at one worker: direct, into a
// key-addressed table, emitted without a sort.
func BenchmarkRadixDenseDirect1M(b *testing.B) {
	d := radixDB(b)
	d.SetWorkers(1)
	defer d.SetWorkers(0)
	q := "select r_c, sum(r_a) from r where r_x < 50 group by r_c"
	if _, ex, err := d.QuerySwole(q); err != nil {
		b.Fatal(err)
	} else if ex.DenseDomain != radixGroups || ex.Partitioned {
		b.Fatalf("DenseDomain=%d Partitioned=%v, want the key-addressed direct path", ex.DenseDomain, ex.Partitioned)
	}
	benchSteady(b, d, q)
}
