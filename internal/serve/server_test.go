package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	swole "github.com/reprolab/swole"
)

// newTestDB builds a tiny DB with one table.
func newTestDB(t testing.TB) *swole.DB {
	t.Helper()
	db := swole.NewDB()
	n := 4096
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(i % 100)
		b[i] = int64(i)
	}
	if err := db.CreateTable("t",
		swole.IntColumn("a", a),
		swole.IntColumn("b", b),
	); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer starts s on a free port and registers cleanup.
func startServer(t *testing.T, s *Server) string {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return "http://" + s.Addr()
}

func postQuery(t *testing.T, base, query string, timeoutMS int64) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": query, "timeout_ms": timeoutMS})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestQueryEndToEnd drives a real DB through /query, /explain, /healthz,
// and /metrics.
func TestQueryEndToEnd(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{Addr: "127.0.0.1:0"})
	base := startServer(t, s)

	resp, body := get(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: status %d body %q", resp.StatusCode, body)
	}

	resp, body = postQuery(t, base, "SELECT SUM(b) FROM t WHERE a < 50", 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d body %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("query response: %v (%s)", err, body)
	}
	if len(qr.Rows) != 1 || len(qr.Rows[0]) != 1 {
		t.Fatalf("query rows = %v, want one scalar", qr.Rows)
	}
	var want int64
	for i := 0; i < 4096; i++ {
		if int64(i%100) < 50 {
			want += int64(i)
		}
	}
	if qr.Rows[0][0] != want {
		t.Fatalf("sum = %d, want %d", qr.Rows[0][0], want)
	}
	if qr.Explain == nil || qr.Explain.Shape == "" {
		t.Fatalf("explain missing from response: %+v", qr.Explain)
	}
	// A cold statement reports what its compile cost, and the statistics
	// share of it.
	if c := qr.Explain; c.StatsTime <= 0 || c.StatsTime > c.PrepareTime {
		t.Fatalf("cold statement: prepare=%s stats=%s, want 0 < stats <= prepare", c.PrepareTime, c.StatsTime)
	}

	resp, body = get(t, base+"/explain?q="+
		strings.ReplaceAll("SELECT SUM(b) FROM t WHERE a < 50", " ", "%20"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d body %s", resp.StatusCode, body)
	}
	var ex swole.Explain
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatalf("explain response: %v (%s)", err, body)
	}
	if ex.Shape == "" || ex.Technique == "" {
		t.Fatalf("explain = %+v, want shape and technique", ex)
	}
	if !ex.PlanCached {
		t.Fatalf("second execution of the statement should be plan-cached: %+v", ex)
	}
	if ex.PrepareTime != 0 || ex.StatsTime != 0 {
		t.Fatalf("a replayed plan compiled nothing: prepare=%s stats=%s", ex.PrepareTime, ex.StatsTime)
	}

	resp, body = get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	// Metrics label by the bounded shape bucket, not the raw signature.
	if !strings.Contains(text, fmt.Sprintf(`swole_queries_total{shape=%q,outcome="ok"} 2`, swole.ShapeBucket(ex.Shape))) {
		t.Fatalf("metrics missing ok counter for shape bucket %q:\n%s", swole.ShapeBucket(ex.Shape), text)
	}
	for _, want := range []string{
		"swole_query_duration_seconds_count 2",
		"swole_inflight_queries 0",
		"swole_plan_cache_hits_total 1",
		"swole_fresh_allocs_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestBadRequests covers the 400 paths.
func TestBadRequests(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{Addr: "127.0.0.1:0"})
	base := startServer(t, s)

	resp, err := http.Post(base+"/query", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}

	resp, body := postQuery(t, base, "", 0)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query: status %d, want 400", resp.StatusCode)
	}

	resp, body = postQuery(t, base, "SELECT nope FROM nowhere", 0)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid query: status %d body %s, want 400", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Outcome != outcomeError {
		t.Fatalf("invalid query outcome = %+v (err %v), want %q", er, err, outcomeError)
	}
}

// blockingRunner blocks until its context is done (or release is closed),
// standing in for a long query. Both exits return an error, so released
// holders finish with outcome "error"; the admission behavior is what's
// under test.
func blockingRunner(release <-chan struct{}) QueryFunc {
	return func(ctx context.Context, q string, _ func([]string, []int64, int)) (swole.Explain, error) {
		select {
		case <-ctx.Done():
			return swole.Explain{Shape: "stub"}, ctx.Err()
		case <-release:
			return swole.Explain{Shape: "stub"}, errors.New("stub released")
		}
	}
}

// TestSaturationRejects fills the single in-flight slot and the zero-depth
// queue, then asserts the next query is refused with 429 immediately.
func TestSaturationRejects(t *testing.T) {
	release := make(chan struct{})
	s := NewWithRunner(blockingRunner(release), Config{
		Addr:        "127.0.0.1:0",
		MaxInFlight: 1,
		MaxQueue:    -1, // no queue: second query must bounce
	})
	base := startServer(t, s)

	// Occupy the only slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _, err := rawPost(base, "hold")
		if err != nil || status != http.StatusBadRequest {
			t.Errorf("holder: status %d err %v, want 400 from released stub", status, err)
		}
	}()

	// Wait until the holder is admitted.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postQuery(t, base, "overflow", -1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d body %s, want 429", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Outcome != outcomeRejected {
		t.Fatalf("saturated outcome = %+v (err %v), want %q", er, err, outcomeRejected)
	}

	close(release)
	wg.Wait()

	_, mbody := get(t, base+"/metrics")
	if !strings.Contains(string(mbody), `swole_queries_total{shape="unknown",outcome="rejected"} 1`) {
		t.Fatalf("metrics missing rejected counter:\n%s", mbody)
	}
}

// TestQueuedThenAdmitted verifies a query beyond MaxInFlight but within
// MaxQueue waits and then runs.
func TestQueuedThenAdmitted(t *testing.T) {
	release := make(chan struct{})
	s := NewWithRunner(blockingRunner(release), Config{
		Addr:        "127.0.0.1:0",
		MaxInFlight: 1,
		MaxQueue:    1,
	})
	base := startServer(t, s)

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _, _ := rawPost(base, "q")
			results <- status
		}()
	}
	// Both requests in: one in-flight, one queued.
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(release) // both stubs finish (with the stub's error); admission order is what's under test
	for i := 0; i < 2; i++ {
		select {
		case <-results:
		case <-time.After(5 * time.Second):
			t.Fatal("queued query never finished")
		}
	}
}

// TestTimeoutOutcome asserts a query that overruns its deadline maps to
// 504 and the timeout counter.
func TestTimeoutOutcome(t *testing.T) {
	s := NewWithRunner(blockingRunner(nil), Config{Addr: "127.0.0.1:0"})
	base := startServer(t, s)

	start := time.Now()
	resp, body := postQuery(t, base, "slow", 50)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timeout: status %d body %s, want 504", resp.StatusCode, body)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want prompt return after 50ms deadline", elapsed)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Outcome != outcomeTimeout {
		t.Fatalf("timeout outcome = %+v (err %v), want %q", er, err, outcomeTimeout)
	}
	_, mbody := get(t, base+"/metrics")
	if !strings.Contains(string(mbody), `swole_queries_total{shape="stub",outcome="timeout"} 1`) {
		t.Fatalf("metrics missing timeout counter:\n%s", mbody)
	}
}

// TestTimeoutBeyondDuration asserts a negative timeout_ms, or one too large
// for a time.Duration, means no deadline instead of wrapping into a
// microsecond, zero or negative deadline; an ordinary one still bounds the
// query.
func TestTimeoutBeyondDuration(t *testing.T) {
	var (
		deadline time.Time
		bounded  bool
	)
	s := NewWithRunner(func(ctx context.Context, _ string, _ func([]string, []int64, int)) (swole.Explain, error) {
		deadline, bounded = ctx.Deadline()
		return swole.Explain{Shape: "stub"}, nil
	}, Config{})
	for _, timeoutMS := range []int64{18446744073710, 9300000000000, -1, -18446744073709, math.MinInt64} {
		body, _ := json.Marshal(queryRequest{Query: "q", TimeoutMS: timeoutMS})
		if rec := post(s, body); rec.Code != http.StatusOK {
			t.Fatalf("timeout_ms %d: status %d body %s", timeoutMS, rec.Code, rec.Body)
		}
		if bounded {
			t.Errorf("timeout_ms %d: deadline in %v, want none", timeoutMS, time.Until(deadline))
		}
	}
	body, _ := json.Marshal(queryRequest{Query: "q", TimeoutMS: 100})
	if rec := post(s, body); rec.Code != http.StatusOK {
		t.Fatalf("timeout_ms 100: status %d body %s", rec.Code, rec.Body)
	}
	if left := time.Until(deadline); !bounded || left <= 0 || left > 100*time.Millisecond {
		t.Errorf("timeout_ms 100: deadline %v (set %v), want within 100ms", left, bounded)
	}
}

// TestGracefulDrain starts a query, calls Shutdown concurrently, and
// asserts (1) new queries are refused while draining, (2) Shutdown waits
// for the in-flight query, (3) Shutdown returns nil.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	s := NewWithRunner(blockingRunner(release), Config{
		Addr:         "127.0.0.1:0",
		MaxInFlight:  2,
		DrainTimeout: 5 * time.Second,
	})
	base := startServer(t, s)

	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		_, _, _ = rawPost(base, "hold")
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.m.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		shutdownErr <- s.Shutdown(context.Background())
	}()

	// Draining: healthz flips and new queries bounce with 503.
	deadline = time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _, err := rawPost(base, "late"); err == nil {
		// The listener may already be closed mid-drain; a refused
		// connection is as correct as a 503.
		if resp != http.StatusServiceUnavailable {
			t.Fatalf("late query during drain: status %d, want 503", resp)
		}
	}

	close(release)
	<-holderDone
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown = %v, want nil (drain within timeout)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned")
	}
}

// TestExplainDuringDrain: once Shutdown has begun, every endpoint that runs
// work — /query, /ingest and /explain, which plans and runs its statement —
// refuses with 503 and an error body, never the saturation 429.
func TestExplainDuringDrain(t *testing.T) {
	s := New(newTestDB(t), Config{})
	s.draining.Store(true)
	for _, r := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/explain?q=x", nil),
		httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(queryBody("SELECT SUM(b) FROM t"))),
		httptest.NewRequest(http.MethodPost, "/ingest?table=t", strings.NewReader("1,2\n")),
	} {
		rec := httptest.NewRecorder()
		s.http.Handler.ServeHTTP(rec, r)
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusServiceUnavailable || er.Error == "" {
			t.Errorf("%s %s while draining: status %d body %s, want 503 with an error", r.Method, r.URL, rec.Code, rec.Body.Bytes())
		}
	}
}

// rawPost is postQuery without test fatals, for requests that may hit a
// closed listener.
func rawPost(base, query string) (int, []byte, error) {
	body, _ := json.Marshal(map[string]any{"query": query, "timeout_ms": -1})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b, nil
}

// TestMetricsRenderEmpty asserts a fresh registry renders every metric
// family (scrapers dislike families that appear later).
func TestMetricsRenderEmpty(t *testing.T) {
	m := newMetrics()
	var b strings.Builder
	m.render(&b)
	text := b.String()
	for _, want := range []string{
		"# TYPE swole_queries_total counter",
		"# TYPE swole_query_duration_seconds histogram",
		`swole_query_duration_seconds_bucket{le="+Inf"} 0`,
		"swole_inflight_queries 0",
		"swole_queued_queries 0",
		"swole_plan_cache_hits_total 0",
		"swole_stats_cache_hits_total 0",
		"swole_ht_grows_total 0",
		"swole_fresh_allocs_total 0",
		"# TYPE swole_ingest_queries_total counter",
		"swole_ingest_rows_total 0",
		"swole_ingest_rows_rejected_total 0",
		`swole_ingest_duration_seconds_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("empty render missing %q:\n%s", want, text)
		}
	}
}

// postIngest POSTs a CSV batch to /ingest.
func postIngest(t *testing.T, base, params, csv string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/ingest?"+params, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestIngestEndToEnd drives POST /ingest against a real DB: a good batch
// appends and is immediately visible to /query, a strict batch with a bad
// row is refused whole with the line attributed, the same batch under
// policy=skip appends the good rows, and the ingest metrics advance.
func TestIngestEndToEnd(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{Addr: "127.0.0.1:0"})
	base := startServer(t, s)

	resp, body := postIngest(t, base, "table=t", "1,1000000\n2,1000001\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", resp.StatusCode, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("ingest response: %v (%s)", err, body)
	}
	if ir.Accepted != 2 || ir.Rejected != 0 || ir.Error != "" {
		t.Fatalf("ingest report = %+v, want 2 accepted", ir)
	}

	resp, body = postQuery(t, base, "SELECT SUM(b) FROM t WHERE b >= 1000000", 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after ingest: status %d body %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if got, want := qr.Rows[0][0], int64(2000001); got != want {
		t.Fatalf("sum over appended rows = %d, want %d", got, want)
	}

	// Strict: one bad row refuses the whole batch, with the line attributed.
	resp, body = postIngest(t, base, "table=t", "5,5\nnope,6\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("strict bad batch: status %d body %s", resp.StatusCode, body)
	}
	ir = ingestResponse{}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 0 || ir.Error == "" || !strings.Contains(ir.Error, "line 2") {
		t.Fatalf("strict report = %+v, want 0 accepted with line 2 attributed", ir)
	}

	// Skip: the good row lands, the bad one is counted and attributed.
	resp, body = postIngest(t, base, "table=t&policy=skip", "5,5\nnope,6\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("skip batch: status %d body %s", resp.StatusCode, body)
	}
	ir = ingestResponse{}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 1 || ir.Rejected != 1 || len(ir.Errors) != 1 {
		t.Fatalf("skip report = %+v, want 1 accepted 1 rejected", ir)
	}

	for params, wantErr := range map[string]string{
		"":                     "missing table",
		"table=zzz":            "no table",
		"table=t&policy=maybe": "policy must be",
	} {
		resp, body = postIngest(t, base, params, "1,2\n")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), strings.Fields(wantErr)[0]) {
			t.Fatalf("params %q: status %d body %s, want 400 mentioning %q", params, resp.StatusCode, body, wantErr)
		}
	}

	// Two successful batches, two classified errors (the strict refusal and
	// the unknown table — the bad-parameter requests fail before admission
	// and are not ingest outcomes).
	_, body = get(t, base+"/metrics")
	for _, want := range []string{
		`swole_ingest_queries_total{outcome="ok"} 2`,
		`swole_ingest_queries_total{outcome="error"} 2`,
		"swole_ingest_rows_total 3",
		"swole_ingest_rows_rejected_total 2",
		"swole_ingest_duration_seconds_count 4",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestIngestWithoutBackend asserts a runner-only server refuses ingest.
func TestIngestWithoutBackend(t *testing.T) {
	s := NewWithRunner(func(ctx context.Context, q string, _ func([]string, []int64, int)) (swole.Explain, error) {
		return swole.Explain{}, errors.New("unused")
	}, Config{Addr: "127.0.0.1:0"})
	base := startServer(t, s)
	resp, body := postIngest(t, base, "table=t", "1,2\n")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("runner-only ingest: status %d body %s, want 501", resp.StatusCode, body)
	}
}
