package serve

import (
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
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

// metrics is the server's registry. The zero value is not ready; use
// newMetrics.
type metrics struct {
	mu      sync.Mutex
	queries map[[2]string]uint64 // {shape, outcome} → count
	buckets []uint64             // cumulative-style counts per latencyBuckets entry
	infSum  float64              // histogram sum (seconds)
	infCnt  uint64               // histogram count

	waits   []uint64 // cumulative-style counts per waitBuckets entry
	waitSum float64  // admission-wait sum (seconds)
	waitCnt uint64   // admission-wait count

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
	ingestBuckets  []uint64
	ingestSum      float64
	ingestCnt      uint64

	inflight atomic.Int64
	queued   atomic.Int64
	panics   atomic.Int64 // handler panics answered 500 (Server.recovered)
}

func newMetrics() *metrics {
	return &metrics{
		queries:       map[[2]string]uint64{},
		buckets:       make([]uint64, len(latencyBuckets)),
		waits:         make([]uint64, len(waitBuckets)),
		ingestQueries: map[string]uint64{},
		ingestBuckets: make([]uint64, len(latencyBuckets)),
		gcSamples: []rtmetrics.Sample{
			{Name: "/gc/pauses:seconds"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

// observeWait records how long one query waited for an admission slot
// (zero for the common uncontended path; rejected queries never reach it).
func (m *metrics) observeWait(d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	for i, ub := range waitBuckets {
		if sec <= ub {
			m.waits[i]++
		}
	}
	m.waitSum += sec
	m.waitCnt++
	m.mu.Unlock()
}

// observe records one finished (or refused) query: its shape and outcome,
// its wall time, and — when the query executed far enough to produce an
// Explain — the engine counters.
func (m *metrics) observe(shape, outcome string, d time.Duration, ex *swole.Explain) {
	if shape == "" {
		shape = "unknown"
	}
	sec := d.Seconds()
	m.mu.Lock()
	m.queries[[2]string{shape, outcome}]++
	for i, ub := range latencyBuckets {
		if sec <= ub {
			m.buckets[i]++
		}
	}
	m.infSum += sec
	m.infCnt++
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
	sec := d.Seconds()
	m.mu.Lock()
	m.ingestQueries[outcome]++
	m.ingestRows += uint64(accepted)
	m.ingestRejected += uint64(rejected)
	for i, ub := range latencyBuckets {
		if sec <= ub {
			m.ingestBuckets[i]++
		}
	}
	m.ingestSum += sec
	m.ingestCnt++
	m.mu.Unlock()
}

// render writes the registry in Prometheus text format. Label sets are
// emitted sorted so scrapes are deterministic (and testable by substring).
func (m *metrics) render(w *strings.Builder) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP swole_queries_total Queries served, by shape and outcome.\n")
	fmt.Fprintf(w, "# TYPE swole_queries_total counter\n")
	keys := make([][2]string, 0, len(m.queries))
	for k := range m.queries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		fmt.Fprintf(w, "swole_queries_total{shape=%q,outcome=%q} %d\n", k[0], k[1], m.queries[k])
	}

	fmt.Fprintf(w, "# HELP swole_query_duration_seconds Query wall time, admission wait included.\n")
	fmt.Fprintf(w, "# TYPE swole_query_duration_seconds histogram\n")
	for i, ub := range latencyBuckets {
		fmt.Fprintf(w, "swole_query_duration_seconds_bucket{le=\"%g\"} %d\n", ub, m.buckets[i])
	}
	fmt.Fprintf(w, "swole_query_duration_seconds_bucket{le=\"+Inf\"} %d\n", m.infCnt)
	fmt.Fprintf(w, "swole_query_duration_seconds_sum %g\n", m.infSum)
	fmt.Fprintf(w, "swole_query_duration_seconds_count %d\n", m.infCnt)

	fmt.Fprintf(w, "# HELP swole_admission_wait_seconds Time queries spent waiting for an admission slot.\n")
	fmt.Fprintf(w, "# TYPE swole_admission_wait_seconds histogram\n")
	for i, ub := range waitBuckets {
		fmt.Fprintf(w, "swole_admission_wait_seconds_bucket{le=\"%g\"} %d\n", ub, m.waits[i])
	}
	fmt.Fprintf(w, "swole_admission_wait_seconds_bucket{le=\"+Inf\"} %d\n", m.waitCnt)
	fmt.Fprintf(w, "swole_admission_wait_seconds_sum %g\n", m.waitSum)
	fmt.Fprintf(w, "swole_admission_wait_seconds_count %d\n", m.waitCnt)

	m.renderGC(w)

	fmt.Fprintf(w, "# HELP swole_inflight_queries Queries admitted and executing now.\n")
	fmt.Fprintf(w, "# TYPE swole_inflight_queries gauge\n")
	fmt.Fprintf(w, "swole_inflight_queries %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# HELP swole_queued_queries Queries waiting for admission now.\n")
	fmt.Fprintf(w, "# TYPE swole_queued_queries gauge\n")
	fmt.Fprintf(w, "swole_queued_queries %d\n", m.queued.Load())

	engine := []struct {
		name, help string
		v          uint64
	}{
		{"swole_panics_total", "Request handlers that panicked and were answered 500.", uint64(m.panics.Load())},
		{"swole_plan_cache_hits_total", "Queries whose planning decision was replayed from the plan cache.", m.planCacheHits},
		{"swole_stats_cache_hits_total", "Queries planned from cached sampling statistics.", m.statsCacheHits},
		{"swole_ht_grows_total", "Hash-table growth events during query execution.", m.htGrows},
		{"swole_fresh_allocs_total", "Execution resources newly allocated rather than recycled.", m.freshAllocs},
	}
	for _, c := range engine {
		fmt.Fprintf(w, "# HELP %s %s\n", c.name, c.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}

	fmt.Fprintf(w, "# HELP swole_ingest_queries_total Ingest batches served, by outcome.\n")
	fmt.Fprintf(w, "# TYPE swole_ingest_queries_total counter\n")
	iouts := make([]string, 0, len(m.ingestQueries))
	for o := range m.ingestQueries {
		iouts = append(iouts, o)
	}
	sort.Strings(iouts)
	for _, o := range iouts {
		fmt.Fprintf(w, "swole_ingest_queries_total{outcome=%q} %d\n", o, m.ingestQueries[o])
	}
	fmt.Fprintf(w, "# HELP swole_ingest_rows_total Rows accepted and appended by POST /ingest.\n")
	fmt.Fprintf(w, "# TYPE swole_ingest_rows_total counter\n")
	fmt.Fprintf(w, "swole_ingest_rows_total %d\n", m.ingestRows)
	fmt.Fprintf(w, "# HELP swole_ingest_rows_rejected_total Rows refused by POST /ingest (malformed under skip, or whole strict batches).\n")
	fmt.Fprintf(w, "# TYPE swole_ingest_rows_rejected_total counter\n")
	fmt.Fprintf(w, "swole_ingest_rows_rejected_total %d\n", m.ingestRejected)
	fmt.Fprintf(w, "# HELP swole_ingest_duration_seconds Ingest batch wall time, admission wait included.\n")
	fmt.Fprintf(w, "# TYPE swole_ingest_duration_seconds histogram\n")
	for i, ub := range latencyBuckets {
		fmt.Fprintf(w, "swole_ingest_duration_seconds_bucket{le=\"%g\"} %d\n", ub, m.ingestBuckets[i])
	}
	fmt.Fprintf(w, "swole_ingest_duration_seconds_bucket{le=\"+Inf\"} %d\n", m.ingestCnt)
	fmt.Fprintf(w, "swole_ingest_duration_seconds_sum %g\n", m.ingestSum)
	fmt.Fprintf(w, "swole_ingest_duration_seconds_count %d\n", m.ingestCnt)
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
	fmt.Fprintf(w, "# HELP swole_gc_pauses_total Stop-the-world GC pauses since process start.\n")
	fmt.Fprintf(w, "# TYPE swole_gc_pauses_total counter\n")
	fmt.Fprintf(w, "swole_gc_pauses_total %d\n", pauses)
	fmt.Fprintf(w, "# HELP swole_gc_pause_max_seconds Upper bound of the longest GC pause observed.\n")
	fmt.Fprintf(w, "# TYPE swole_gc_pause_max_seconds gauge\n")
	fmt.Fprintf(w, "swole_gc_pause_max_seconds %g\n", maxPause)

	if c := m.gcSamples[1]; c.Value.Kind() == rtmetrics.KindUint64 {
		fmt.Fprintf(w, "# HELP swole_gc_cycles_total Completed GC cycles since process start.\n")
		fmt.Fprintf(w, "# TYPE swole_gc_cycles_total counter\n")
		fmt.Fprintf(w, "swole_gc_cycles_total %d\n", c.Value.Uint64())
	}
}
