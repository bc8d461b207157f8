package swole

// Shard scatter-gather benchmarks: the same 1M-group aggregation executed
// over 1, 2, and 4 row-range shards of one 4M-row fact table, at one
// morsel worker per shard engine — so the only parallelism is the shard
// fan-out itself, and the shards4/shards1 ratio is the scatter-gather
// speedup. CI's shard-scaling job publishes these as BENCH_shard.json and
// gates shards4 at >=1.4x over shards1 on its multi-core runners; the
// committed reference was recorded on whatever cores the recording
// machine had, so read the ratio, not the absolute numbers. Like the
// radix benchmarks these are about time, not allocation: the fan-out path
// clones per-shard timings into each Explain, so warm runs report a few
// small allocations by design.

import (
	"fmt"
	"testing"
)

const (
	shardBenchRows   = 4_194_304
	shardBenchGroups = 1_048_576
)

// shardBenchVar caches the 4M-row DB across sub-benchmarks; re-sharding
// between them is zero-copy (row-range slices share the loaded arrays).
var shardBenchVar *DB

func shardBenchDB(b *testing.B) *DB {
	b.Helper()
	if shardBenchVar == nil {
		d, err := LoadMicro(MicroConfig{
			Rows: shardBenchRows, DimRows: 1024, GroupKeys: shardBenchGroups,
		})
		if err != nil {
			b.Fatal(err)
		}
		shardBenchVar = d
	}
	return shardBenchVar
}

// BenchmarkShardGroupAgg1M is the shard layer's acceptance benchmark: a
// 1M-group aggregation over 4M rows at 1 worker per engine, fanned out
// over K shards.
func BenchmarkShardGroupAgg1M(b *testing.B) {
	q := "select r_c, sum(r_a) from r where r_x < 50 group by r_c"
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards%d", k), func(b *testing.B) {
			d := shardBenchDB(b)
			if err := d.ShardTable("r", k); err != nil {
				b.Fatal(err)
			}
			d.SetWorkers(1)
			defer d.SetWorkers(0)
			// Cold run compiles one plan per shard; two extra warm
			// runs let buffer high-water marks converge.
			_, ex, err := d.QuerySwole(q)
			if err != nil {
				b.Fatal(err)
			}
			if k > 1 && ex.ShardCount != k {
				b.Fatalf("ShardCount = %d, want %d", ex.ShardCount, k)
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
		})
	}
}

// BenchmarkShardScalarAgg measures the fan-out floor: a scalar aggregate's
// merge is K additions, so this isolates dispatch overhead (goroutine
// spawn, shard read locks, explain aggregation) from merge cost.
func BenchmarkShardScalarAgg(b *testing.B) {
	q := "select sum(r_a * r_b) from r where r_x < 50"
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards%d", k), func(b *testing.B) {
			d := shardBenchDB(b)
			if err := d.ShardTable("r", k); err != nil {
				b.Fatal(err)
			}
			d.SetWorkers(1)
			defer d.SetWorkers(0)
			for i := 0; i < 3; i++ {
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
		})
	}
}
