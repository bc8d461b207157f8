package main

// perLayer lists the metrics of the traced run, layer by layer. Timings
// are corrected medians. BENCHMARK.json repeats the list and a unit test
// keeps the two in step. The bound field is unused: no per-layer metric
// is gated.
var perLayer = []metricDef{
	// sql: sql.Compile on the benchmark-owned storage.Database.
	{name: "sql.compile_us", unit: "us", better: "lower"},
	{name: "sql.plan_nodes", unit: "count", better: "lower"},

	// root: the swole package's statement cache around core.
	{name: "root.cold_ms", unit: "ms", better: "lower"},
	{name: "root.warm_overhead_us", unit: "us", better: "lower"},
	{name: "root.clone_us", unit: "us", better: "lower"},
	{name: "root.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "root.evictions_per_ingest", unit: "count", better: "lower"},
	{name: "root.fallback_ratio", unit: "ratio", better: "lower"},

	// core: prepared plans on hand-built specs, and the generic executor.
	{name: "core.prepare_us", unit: "us", better: "lower"},
	{name: "core.run_ms", unit: "ms", better: "lower"},
	{name: "core.run_share", unit: "ratio", better: "higher"},
	{name: "core.select_run_ms", unit: "ms", better: "lower"},
	{name: "core.stats_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.fresh_allocs_per_stmt", unit: "count", better: "lower"},
	{name: "core.pullup_ratio", unit: "ratio", better: "higher"},
	{name: "core.partitioned_ratio", unit: "ratio", better: "higher"},

	// exec: the morsel gang.
	{name: "exec.dispatch_us", unit: "us", better: "lower"},
	{name: "exec.w2_speedup", unit: "ratio", better: "higher"},

	// vec, bitmap, ht: standalone kernels over the workload's own columns.
	{name: "vec.cmp_rows_per_us", unit: "rows/us", better: "higher"},
	{name: "vec.sel_rows_per_us.s05", unit: "rows/us", better: "higher"},
	{name: "vec.sel_rows_per_us.s50", unit: "rows/us", better: "higher"},
	{name: "vec.sel_rows_per_us.s95", unit: "rows/us", better: "higher"},
	{name: "vec.summasked_rows_per_us", unit: "rows/us", better: "higher"},
	{name: "vec.dense_tile_ratio", unit: "ratio", better: "higher"},
	{name: "bitmap.build_rows_per_us", unit: "rows/us", better: "higher"},
	{name: "bitmap.or_rows_per_us", unit: "rows/us", better: "higher"},
	{name: "ht.fold_ns_per_row.g100", unit: "ns", better: "lower"},
	{name: "ht.fold_ns_per_row.g1m", unit: "ns", better: "lower"},
	{name: "ht.scatter_ns_per_row", unit: "ns", better: "lower"},
	{name: "ht.grows_per_stmt", unit: "count", better: "lower"},

	// storage and ingest: building tables and appending to them.
	{name: "storage.load_s", unit: "s", better: "lower"},
	{name: "storage.append_ns_per_row", unit: "ns", better: "lower"},
	{name: "ingest.parse_rows_per_s", unit: "1/s", better: "higher"},
	{name: "ingest.append_rows_per_s", unit: "1/s", better: "higher"},
	{name: "ingest.recompile_ms", unit: "ms", better: "lower"},

	// serve: loopback HTTP round trips.
	{name: "serve.query_rtt_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.ingest_rtt_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.overhead_us", unit: "us", better: "lower"},
	{name: "serve.encode_us_per_krow", unit: "us", better: "lower"},
	{name: "serve.admission_wait_ms", unit: "ms", better: "lower"},
	{name: "serve.rejected_ratio", unit: "ratio", better: "lower"},
	{name: "serve.c2_speedup", unit: "ratio", better: "higher"},

	// volcano: what the oracle costs.
	{name: "volcano.oracle_ms", unit: "ms", better: "lower"},

	// runtime: the Go runtime during the traced pass loop.
	{name: "runtime.alloc_kb_per_stmt", unit: "kB", better: "lower"},
	{name: "runtime.gc_cycles_per_kstmt", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},

	// bench: the harness itself, to audit the correction and tracing.
	{name: "bench.pass_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.raw_pass_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.raw_pass_p90_ms", unit: "ms", better: "lower"},
	{name: "bench.pass_p90_ms", unit: "ms", better: "lower"},
	{name: "bench.ref_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.ref_spread", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
}
