package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	swole "github.com/reprolab/swole"
)

// TestMetricsExposition pins the whole /metrics text for a fixed sequence of
// observations, byte for byte: scrapers, the benchmark's trace and CI's grep
// steps parse it. Each histogram gets a sample in its lowest bucket, a middle
// bucket and +Inf. The swole_gc_* values belong to the process, not to the
// sequence, and are masked.
func TestMetricsExposition(t *testing.T) {
	m := newMetrics()
	m.observe("group-agg", outcomeOK, 100*time.Microsecond, &swole.Explain{PlanCached: true, StatsCached: true, HTGrows: 2, FreshAllocs: 3})
	m.observe("scalar-agg", outcomeOK, 30*time.Millisecond, &swole.Explain{PlanCached: true})
	m.observe("scalar-agg", outcomeTimeout, 20*time.Second, &swole.Explain{FreshAllocs: 1})
	m.observe("unknown", outcomeRejected, 0, nil)
	m.observeWait(10 * time.Microsecond)
	m.observeWait(3 * time.Millisecond)
	m.observeWait(5 * time.Second)
	m.observeIngest(outcomeOK, 200*time.Microsecond, 5, 1)
	m.observeIngest(outcomeError, 30*time.Millisecond, 0, 4)
	m.observeIngest(outcomeRejected, 20*time.Second, 0, 0)
	m.inflight.Add(2)
	m.queued.Add(1)
	m.panics.Add(1)

	var b strings.Builder
	m.render(&b)
	lines := strings.Split(b.String(), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "swole_gc_") {
			lines[i] = l[:strings.LastIndexByte(l, ' ')] + " X"
		}
	}
	if got := strings.Join(lines, "\n"); got != wantExposition {
		t.Errorf("exposition differs; got:\n%s", got)
	}
}

const wantExposition = `# HELP swole_queries_total Queries served, by shape and outcome.
# TYPE swole_queries_total counter
swole_queries_total{shape="group-agg",outcome="ok"} 1
swole_queries_total{shape="scalar-agg",outcome="ok"} 1
swole_queries_total{shape="scalar-agg",outcome="timeout"} 1
swole_queries_total{shape="unknown",outcome="rejected"} 1
# HELP swole_query_duration_seconds Query wall time, admission wait included.
# TYPE swole_query_duration_seconds histogram
swole_query_duration_seconds_bucket{le="0.0005"} 2
swole_query_duration_seconds_bucket{le="0.001"} 2
swole_query_duration_seconds_bucket{le="0.0025"} 2
swole_query_duration_seconds_bucket{le="0.005"} 2
swole_query_duration_seconds_bucket{le="0.01"} 2
swole_query_duration_seconds_bucket{le="0.025"} 2
swole_query_duration_seconds_bucket{le="0.05"} 3
swole_query_duration_seconds_bucket{le="0.1"} 3
swole_query_duration_seconds_bucket{le="0.25"} 3
swole_query_duration_seconds_bucket{le="0.5"} 3
swole_query_duration_seconds_bucket{le="1"} 3
swole_query_duration_seconds_bucket{le="2.5"} 3
swole_query_duration_seconds_bucket{le="5"} 3
swole_query_duration_seconds_bucket{le="10"} 3
swole_query_duration_seconds_bucket{le="+Inf"} 4
swole_query_duration_seconds_sum 20.0301
swole_query_duration_seconds_count 4
# HELP swole_admission_wait_seconds Time queries spent waiting for an admission slot.
# TYPE swole_admission_wait_seconds histogram
swole_admission_wait_seconds_bucket{le="5e-05"} 1
swole_admission_wait_seconds_bucket{le="0.0001"} 1
swole_admission_wait_seconds_bucket{le="0.00025"} 1
swole_admission_wait_seconds_bucket{le="0.0005"} 1
swole_admission_wait_seconds_bucket{le="0.001"} 1
swole_admission_wait_seconds_bucket{le="0.0025"} 1
swole_admission_wait_seconds_bucket{le="0.005"} 2
swole_admission_wait_seconds_bucket{le="0.01"} 2
swole_admission_wait_seconds_bucket{le="0.025"} 2
swole_admission_wait_seconds_bucket{le="0.05"} 2
swole_admission_wait_seconds_bucket{le="0.1"} 2
swole_admission_wait_seconds_bucket{le="0.25"} 2
swole_admission_wait_seconds_bucket{le="0.5"} 2
swole_admission_wait_seconds_bucket{le="1"} 2
swole_admission_wait_seconds_bucket{le="2.5"} 2
swole_admission_wait_seconds_bucket{le="+Inf"} 3
swole_admission_wait_seconds_sum 5.00301
swole_admission_wait_seconds_count 3
# HELP swole_gc_pauses_total Stop-the-world GC pauses since process start.
# TYPE swole_gc_pauses_total counter
swole_gc_pauses_total X
# HELP swole_gc_pause_max_seconds Upper bound of the longest GC pause observed.
# TYPE swole_gc_pause_max_seconds gauge
swole_gc_pause_max_seconds X
# HELP swole_gc_cycles_total Completed GC cycles since process start.
# TYPE swole_gc_cycles_total counter
swole_gc_cycles_total X
# HELP swole_inflight_queries Queries admitted and executing now.
# TYPE swole_inflight_queries gauge
swole_inflight_queries 2
# HELP swole_queued_queries Queries waiting for admission now.
# TYPE swole_queued_queries gauge
swole_queued_queries 1
# HELP swole_panics_total Request handlers that panicked and were answered 500.
# TYPE swole_panics_total counter
swole_panics_total 1
# HELP swole_plan_cache_hits_total Queries whose planning decision was replayed from the plan cache.
# TYPE swole_plan_cache_hits_total counter
swole_plan_cache_hits_total 2
# HELP swole_stats_cache_hits_total Queries planned from cached sampling statistics.
# TYPE swole_stats_cache_hits_total counter
swole_stats_cache_hits_total 1
# HELP swole_ht_grows_total Hash-table growth events during query execution.
# TYPE swole_ht_grows_total counter
swole_ht_grows_total 2
# HELP swole_fresh_allocs_total Execution resources newly allocated rather than recycled.
# TYPE swole_fresh_allocs_total counter
swole_fresh_allocs_total 4
# HELP swole_ingest_queries_total Ingest batches served, by outcome.
# TYPE swole_ingest_queries_total counter
swole_ingest_queries_total{outcome="error"} 1
swole_ingest_queries_total{outcome="ok"} 1
swole_ingest_queries_total{outcome="rejected"} 1
# HELP swole_ingest_rows_total Rows accepted and appended by POST /ingest.
# TYPE swole_ingest_rows_total counter
swole_ingest_rows_total 5
# HELP swole_ingest_rows_rejected_total Rows refused by POST /ingest (malformed under skip, or whole strict batches).
# TYPE swole_ingest_rows_rejected_total counter
swole_ingest_rows_rejected_total 5
# HELP swole_ingest_duration_seconds Ingest batch wall time, admission wait included.
# TYPE swole_ingest_duration_seconds histogram
swole_ingest_duration_seconds_bucket{le="0.0005"} 1
swole_ingest_duration_seconds_bucket{le="0.001"} 1
swole_ingest_duration_seconds_bucket{le="0.0025"} 1
swole_ingest_duration_seconds_bucket{le="0.005"} 1
swole_ingest_duration_seconds_bucket{le="0.01"} 1
swole_ingest_duration_seconds_bucket{le="0.025"} 1
swole_ingest_duration_seconds_bucket{le="0.05"} 2
swole_ingest_duration_seconds_bucket{le="0.1"} 2
swole_ingest_duration_seconds_bucket{le="0.25"} 2
swole_ingest_duration_seconds_bucket{le="0.5"} 2
swole_ingest_duration_seconds_bucket{le="1"} 2
swole_ingest_duration_seconds_bucket{le="2.5"} 2
swole_ingest_duration_seconds_bucket{le="5"} 2
swole_ingest_duration_seconds_bucket{le="10"} 2
swole_ingest_duration_seconds_bucket{le="+Inf"} 3
swole_ingest_duration_seconds_sum 20.0302
swole_ingest_duration_seconds_count 3
`

// TestIngestAdmission: POST /ingest passes the same door as /query. With the
// one slot held and no queue it is refused 429; once Shutdown has begun, 503.
// Both refusals count as rejected ingest batches.
func TestIngestAdmission(t *testing.T) {
	release := make(chan struct{})
	s := NewWithRunner(blockingRunner(release), Config{
		Addr:        "127.0.0.1:0",
		MaxInFlight: 1,
		MaxQueue:    -1,
	})
	s.ingest = func(string, []byte, swole.IngestPolicy) (swole.IngestReport, error) {
		t.Error("a refused ingest batch reached the backend")
		return swole.IngestReport{}, nil
	}
	base := startServer(t, s)

	held := make(chan int, 1)
	go func() {
		status, _, _ := rawPost(base, "hold")
		held <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.m.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postIngest(t, base, "table=t", "1,2\n")
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil || resp.StatusCode != http.StatusTooManyRequests || ir.Error == "" {
		t.Fatalf("saturated ingest: status %d body %s, want 429 with an error", resp.StatusCode, body)
	}

	shutdown := make(chan error, 1)
	go func() { shutdown <- s.Shutdown(context.Background()) }()
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never began draining")
		}
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	s.http.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest?table=t", strings.NewReader("1,2\n")))
	ir = ingestResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil || rec.Code != http.StatusServiceUnavailable || ir.Error == "" {
		t.Fatalf("draining ingest: status %d body %s, want 503 with an error", rec.Code, rec.Body.Bytes())
	}

	close(release)
	if status := <-held; status != http.StatusBadRequest {
		t.Errorf("holder: status %d, want 400 from the released stub", status)
	}
	select {
	case err := <-shutdown:
		if err != nil {
			t.Fatalf("Shutdown = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned")
	}

	var b strings.Builder
	s.m.render(&b)
	if want := `swole_ingest_queries_total{outcome="rejected"} 2` + "\n"; !strings.Contains(b.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, b.String())
	}
}
