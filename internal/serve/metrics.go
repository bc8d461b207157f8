package serve

import (
	"cmp"
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	swole "github.com/reprolab/swole"
)

// Dependency-free metrics for the serving subsystem, rendered in the
// Prometheus text exposition format (version 0.0.4) — counters by query
// shape and outcome, latency histograms, gauges for admission state,
// and engine-wide aggregates of the Explain counters the engine already
// reports per query (plan-cache hits, stats-cache hits, hash-table
// growths, fresh resource allocations). A scrape renders everything under
// one mutex; the per-query observe path touches the same mutex once, so
// metric cost is a map update per query, not a contention point next to
// the engine's own serialization.
//
// Two histograms split a query's wall time into its serving phases:
// swole_query_duration_seconds is end-to-end (admission wait included) and
// swole_admission_wait_seconds is the wait alone, so a scraper attributes
// tail latency to queueing vs execution from the two sums. The scrape also
// samples runtime/metrics for GC stop-the-world pauses — the third place a
// served query's tail can hide.

// Outcome labels for swole_queries_total.
const (
	outcomeOK       = "ok"
	outcomeCanceled = "canceled"
	outcomeTimeout  = "timeout"
	outcomeRejected = "rejected"
	outcomeError    = "error"
)

// latencyBuckets are the histogram's upper bounds in seconds, spanning
// cache-hit microbenchmark queries to multi-second cold scans.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// waitBuckets bound the admission-wait histogram. Waits start an order of
// magnitude below query latencies — an uncontended admit is nanoseconds —
// so the ladder reaches lower than latencyBuckets.
var waitBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// histogram is one Prometheus histogram: a count per upper bound (each
// observation counts in every bucket it fits, as the exposition's cumulative
// le buckets want), their sum in seconds and the observation count.
type histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	for i, ub := range h.bounds {
		if sec <= ub {
			h.counts[i]++
		}
	}
	h.sum += sec
	h.count++
}

func (h *histogram) render(w *strings.Builder, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, ub := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", name, h.count, name, h.sum, name, h.count)
}

// renderValue writes one unlabeled counter or gauge.
func renderValue(w *strings.Builder, name, kind, help string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, v)
}

// renderCounters writes a labeled counter family, one sample per key in the
// order sorts them, each key's label set written by label.
func renderCounters[K comparable](w *strings.Builder, name, help string, counts map[K]uint64, order func(a, b K) int, label func(K) string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	keys := make([]K, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, order)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %d\n", name, label(k), counts[k])
	}
}

// metrics is the server's registry. The zero value is not ready; use
// newMetrics.
type metrics struct {
	mu       sync.Mutex
	queries  map[[2]string]uint64 // {shape, outcome} → count
	duration histogram            // query wall time
	wait     histogram            // admission wait, queries only

	gcSamples []rtmetrics.Sample // runtime/metrics scrape buffer

	planCacheHits  uint64
	statsCacheHits uint64
	htGrows        uint64
	freshAllocs    uint64

	// Write path: POST /ingest batches by outcome, rows accepted and
	// rejected across all batches, and a separate duration histogram so
	// scrapes attribute read tail latency without ingest samples mixed in.
	ingestQueries  map[string]uint64 // outcome → count
	ingestRows     uint64
	ingestRejected uint64
	ingestDuration histogram

	inflight atomic.Int64
	queued   atomic.Int64
	panics   atomic.Int64 // handler panics answered 500 (Server.recovered)
}

func newMetrics() *metrics {
	return &metrics{
		queries:        map[[2]string]uint64{},
		duration:       newHistogram(latencyBuckets),
		wait:           newHistogram(waitBuckets),
		ingestQueries:  map[string]uint64{},
		ingestDuration: newHistogram(latencyBuckets),
		gcSamples: []rtmetrics.Sample{
			{Name: "/gc/pauses:seconds"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

// observeWait records how long one query waited for an admission slot
// (zero for the common uncontended path; rejected queries never reach it).
func (m *metrics) observeWait(d time.Duration) {
	m.mu.Lock()
	m.wait.observe(d)
	m.mu.Unlock()
}

// observe records one finished (or refused) query: its shape and outcome,
// its wall time, and — when the query executed far enough to produce an
// Explain — the engine counters.
func (m *metrics) observe(shape, outcome string, d time.Duration, ex *swole.Explain) {
	if shape == "" {
		shape = "unknown"
	}
	m.mu.Lock()
	m.queries[[2]string{shape, outcome}]++
	m.duration.observe(d)
	if ex != nil {
		if ex.PlanCached {
			m.planCacheHits++
		}
		if ex.StatsCached {
			m.statsCacheHits++
		}
		m.htGrows += uint64(ex.HTGrows)
		m.freshAllocs += uint64(ex.FreshAllocs)
	}
	m.mu.Unlock()
}

// observeIngest records one finished (or refused) ingest batch: its
// outcome, wall time, and how many rows it appended and rejected.
func (m *metrics) observeIngest(outcome string, d time.Duration, accepted, rejected int) {
	m.mu.Lock()
	m.ingestQueries[outcome]++
	m.ingestRows += uint64(accepted)
	m.ingestRejected += uint64(rejected)
	m.ingestDuration.observe(d)
	m.mu.Unlock()
}

// render writes the registry in Prometheus text format. Label sets are
// emitted sorted so scrapes are deterministic (and testable by substring).
func (m *metrics) render(w *strings.Builder) {
	m.mu.Lock()
	defer m.mu.Unlock()

	renderCounters(w, "swole_queries_total", "Queries served, by shape and outcome.", m.queries,
		func(a, b [2]string) int { return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1])) },
		func(k [2]string) string { return fmt.Sprintf("shape=%q,outcome=%q", k[0], k[1]) })
	m.duration.render(w, "swole_query_duration_seconds", "Query wall time, admission wait included.")
	m.wait.render(w, "swole_admission_wait_seconds", "Time queries spent waiting for an admission slot.")

	m.renderGC(w)

	renderValue(w, "swole_inflight_queries", "gauge", "Queries admitted and executing now.", m.inflight.Load())
	renderValue(w, "swole_queued_queries", "gauge", "Queries waiting for admission now.", m.queued.Load())
	renderValue(w, "swole_panics_total", "counter", "Request handlers that panicked and were answered 500.", m.panics.Load())
	renderValue(w, "swole_plan_cache_hits_total", "counter", "Queries whose planning decision was replayed from the plan cache.", m.planCacheHits)
	renderValue(w, "swole_stats_cache_hits_total", "counter", "Queries planned from cached sampling statistics.", m.statsCacheHits)
	renderValue(w, "swole_ht_grows_total", "counter", "Hash-table growth events during query execution.", m.htGrows)
	renderValue(w, "swole_fresh_allocs_total", "counter", "Execution resources newly allocated rather than recycled.", m.freshAllocs)

	renderCounters(w, "swole_ingest_queries_total", "Ingest batches served, by outcome.", m.ingestQueries,
		strings.Compare, func(o string) string { return fmt.Sprintf("outcome=%q", o) })
	renderValue(w, "swole_ingest_rows_total", "counter", "Rows accepted and appended by POST /ingest.", m.ingestRows)
	renderValue(w, "swole_ingest_rows_rejected_total", "counter", "Rows refused by POST /ingest (malformed under skip, or whole strict batches).", m.ingestRejected)
	m.ingestDuration.render(w, "swole_ingest_duration_seconds", "Ingest batch wall time, admission wait included.")
}

// renderGC samples the runtime's GC telemetry at scrape time and emits the
// pause figures a latency investigation wants: how many stop-the-world
// pauses the process has taken, the worst one, and the cycle count. The
// runtime histogram is cumulative since process start, which matches
// Prometheus counter semantics — scrapers diff two scrapes to attribute
// pauses to a load window. Called with m.mu held.
func (m *metrics) renderGC(w *strings.Builder) {
	rtmetrics.Read(m.gcSamples)

	var pauses uint64
	maxPause := 0.0
	if h := m.gcSamples[0]; h.Value.Kind() == rtmetrics.KindFloat64Histogram {
		hist := h.Value.Float64Histogram()
		for i, c := range hist.Counts {
			if c == 0 {
				continue
			}
			pauses += c
			// The bucket's upper bound caps every pause it holds; the last
			// bucket's +Inf bound falls back to its finite lower edge.
			ub := hist.Buckets[i+1]
			if math.IsInf(ub, 1) {
				ub = hist.Buckets[i]
			}
			if ub > maxPause {
				maxPause = ub
			}
		}
	}
	renderValue(w, "swole_gc_pauses_total", "counter", "Stop-the-world GC pauses since process start.", pauses)
	renderValue(w, "swole_gc_pause_max_seconds", "gauge", "Upper bound of the longest GC pause observed.", maxPause)
	if c := m.gcSamples[1]; c.Value.Kind() == rtmetrics.KindUint64 {
		renderValue(w, "swole_gc_cycles_total", "counter", "Completed GC cycles since process start.", c.Value.Uint64())
	}
}
