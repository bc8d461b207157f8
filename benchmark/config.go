package main

// Frozen benchmark constants. BENCHMARK.json at the repository root has a
// fixed key set, so everything the issue wanted "frozen in BENCHMARK.json"
// beyond those keys (ref_ms, pass counts, warm-up counts, data scales)
// lives here instead and is printed in every run's provenance header.

const (
	// refMS is the reference kernel's nominal duration. A gated timing is
	// wall × refMS / c, with c the reference kernel's measured duration
	// around that timing, so corrected values read as milliseconds on a
	// host where the kernel takes refMS. 25 ms is what it takes on the host
	// the pass counts were chosen on, in its usual state (the issue's 3.0
	// belonged to the kernel's original, shorter loop body).
	refMS = 25.0

	// frozenSeconds is run_seconds in BENCHMARK.json: the measured-phase
	// length the pass counts below were chosen for. -seconds scales the
	// pass counts proportionally; the work per pass never changes.
	frozenSeconds = 8

	// phaseCapFactor bounds the measured phase on a host that is much
	// slower than usual: once the phase has lasted phaseCapFactor × -seconds
	// and at least minPasses passes are done, it stops early, so that a
	// run still ends in time. On the host the pass counts were chosen on,
	// the phase takes -seconds and the cap is never reached.
	phaseCapFactor = 1.75
	minPasses      = 10

	// defaultSeed is the seed benchmark/golden.json was generated for.
	defaultSeed = 1

	// setupRepeats is how many times a gated run performs the whole
	// set-up; setup_s is the median of the corrected set-up times and the
	// measured phase runs on the last one.
	setupRepeats = 2

	// setupRefSamples is how many reference samples are taken at each
	// boundary between set-up steps; a step is corrected by the median of
	// the samples on both of its sides.
	setupRefSamples = 2

	// windowRadius is the half-width, in passes, of the window whose
	// reference samples correct one pass.
	windowRadius = 2

	// gatedWorkers and gatedProcs pin gated runs to one engine worker on
	// GOMAXPROCS=2 (one OS thread for the driver goroutine, one for the
	// runtime and, in serve_mixed, the server side of the connection).
	gatedWorkers = 1
	gatedProcs   = 2
)

// workloadCfg is the frozen sizing of one workload.
type workloadCfg struct {
	name string
	why  string
	// passes is the measured pass count at frozenSeconds; warmup is W, the
	// unmeasured warm-up passes that end every set-up.
	passes, warmup int
	// tracePasses is the pass count of each pass loop in the traced run.
	tracePasses int
	// Data scales, printed in the provenance header.
	rows, dimRows, groups int     // micro datasets
	sf                    float64 // TPC-H
}

var workloadCfgs = []workloadCfg{
	{
		name: "micro_classic", why: "the paper's regime: warm plan-cached classic shapes; core husks, vec, ht and bitmap do nearly all the work",
		passes: 18, warmup: 2, tracePasses: 4,
		rows: 2_000_000, dimRows: 100_000, groups: 1_000_000,
	},
	{
		name: "tpch_generic", why: "warm statements that only the generic core.PrepareSelect executor can run; the hand husks do nothing here",
		passes: 32, warmup: 3, tracePasses: 6,
		sf: 0.2,
	},
	{
		name: "adhoc_compile", why: "never-seen statements: sql, expr, cost, synthesize and core.Prepare* dominate and kernels idle",
		passes: 32, warmup: 8, tracePasses: 6,
		rows: 50_000, dimRows: 1_000, groups: 1_000,
	},
	{
		name: "serve_mixed", why: "reads and CSV appends over loopback HTTP: evictions, stats merges, recompiles, result copy and encoding",
		passes: 44, warmup: 8, tracePasses: 6,
		rows: 1_000_000, dimRows: 1_000, groups: 100_000,
	},
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd lists the gated metrics; BENCHMARK.json repeats them and a
// unit test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_p50_ms", "ms", "lower", 0.25},
	{"stmts_per_s", "1/s", "higher", 0.25},
	{"allocs_per_stmt", "count", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.20},
}
