package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	swole "github.com/reprolab/swole"
)

// newShardDB builds a DB holding rows [lo, hi) of the conceptual table the
// coordinator test splits across processes: t(a, b) with a = i%100 and
// b = i for global row index i.
func newShardDB(t *testing.T, lo, hi int) *swole.DB {
	t.Helper()
	db := swole.NewDB()
	a := make([]int64, hi-lo)
	b := make([]int64, hi-lo)
	for i := range a {
		a[i] = int64((lo + i) % 100)
		b[i] = int64(lo + i)
	}
	if err := db.CreateTable("t",
		swole.IntColumn("a", a),
		swole.IntColumn("b", b),
	); err != nil {
		t.Fatal(err)
	}
	return db
}

// startShards boots n ordinary servers, each over one row-range of 4096
// rows, and returns their raw host:port addresses.
func startShards(t *testing.T, n int) []string {
	t.Helper()
	const rows = 4096
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		lo, hi := i*rows/n, (i+1)*rows/n
		s := New(newShardDB(t, lo, hi), Config{Addr: "127.0.0.1:0"})
		startServer(t, s)
		addrs[i] = s.Addr()
	}
	return addrs
}

func startCoordinator(t *testing.T, cfg CoordinatorConfig) string {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return startServer(t, s)
}

// TestCoordinatorMergesAnswers checks scatter-gather end to end: scalar
// partials sum, group partials merge by key, and both match a single
// process holding all the rows.
func TestCoordinatorMergesAnswers(t *testing.T) {
	base := startCoordinator(t, CoordinatorConfig{Shards: startShards(t, 2)})
	whole := newShardDB(t, 0, 4096)

	for _, q := range []string{
		"SELECT SUM(b) FROM t WHERE a < 50",
		"SELECT a, SUM(b) FROM t WHERE a < 7 GROUP BY a",
	} {
		want, _, err := whole.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		resp, body := postQuery(t, base, q, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", q, resp.StatusCode, body)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(qr.Rows), fmt.Sprint(want.Rows()); got != want {
			t.Errorf("%s: merged rows %s, want %s", q, got, want)
		}
		if qr.Explain == nil || qr.Explain.ShardCount != 2 {
			t.Errorf("%s: explain missing shard count 2: %+v", q, qr.Explain)
		} else if len(qr.Explain.ShardTimes) != 2 {
			t.Errorf("%s: want 2 shard times, got %v", q, qr.Explain.ShardTimes)
		}
	}

	// The dispatch metric names each shard.
	_, mbody := get(t, base+"/metrics")
	for shard := 0; shard < 2; shard++ {
		want := fmt.Sprintf("swole_shard_queries_total{shard=%q}", fmt.Sprint(shard))
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %s:\n%s", want, mbody)
		}
	}
}

// TestCoordinatorShardRejectionAttributed saturates one shard so it answers
// 429; the whole query must fail and name the guilty shard, with the full
// per-shard attribution in the error body's explain.
func TestCoordinatorShardRejectionAttributed(t *testing.T) {
	healthy := New(newShardDB(t, 0, 2048), Config{Addr: "127.0.0.1:0"})
	startServer(t, healthy)
	// A shard whose backend always reports saturation → HTTP 429.
	saturated := NewWithRunner(func(ctx context.Context, q string, _ func([]string, []int64, int)) (swole.Explain, error) {
		return swole.Explain{}, errRejected
	}, Config{Addr: "127.0.0.1:0"})
	startServer(t, saturated)

	base := startCoordinator(t, CoordinatorConfig{Shards: []string{healthy.Addr(), saturated.Addr()}})
	resp, body := postQuery(t, base, "SELECT SUM(b) FROM t WHERE a < 50", 0)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("want failure, got 200: %s", body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "shard 1") || !strings.Contains(er.Error, "429") {
		t.Errorf("error does not attribute shard 1's rejection: %q", er.Error)
	}
	if er.Explain == nil || len(er.Explain.ShardErrors) != 1 {
		t.Fatalf("error body missing ShardErrors attribution: %+v", er.Explain)
	}
	if se := er.Explain.ShardErrors[0]; !strings.Contains(se, "shard 1") || !strings.Contains(se, "429") {
		t.Errorf("ShardErrors[0] = %q, want shard 1 rejection", se)
	}
}

// TestCoordinatorShardTimeoutAttributed points the coordinator at a shard
// that never answers within the query's deadline; the failure must classify
// as a timeout and name the shard.
func TestCoordinatorShardTimeoutAttributed(t *testing.T) {
	healthy := New(newShardDB(t, 0, 2048), Config{Addr: "127.0.0.1:0"})
	startServer(t, healthy)
	stuck := NewWithRunner(func(ctx context.Context, q string, _ func([]string, []int64, int)) (swole.Explain, error) {
		<-ctx.Done()
		return swole.Explain{}, ctx.Err()
	}, Config{Addr: "127.0.0.1:0"})
	startServer(t, stuck)

	base := startCoordinator(t, CoordinatorConfig{Shards: []string{healthy.Addr(), stuck.Addr()}})
	resp, body := postQuery(t, base, "SELECT SUM(b) FROM t WHERE a < 50", 150)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "shard 1") {
		t.Errorf("timeout not attributed to shard 1: %q", er.Error)
	}
	if er.Explain == nil || len(er.Explain.ShardErrors) == 0 {
		t.Errorf("error body missing ShardErrors: %+v", er.Explain)
	}
}

// TestCoordinatorNeedsShards pins the configuration error.
func TestCoordinatorNeedsShards(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{}); err == nil {
		t.Fatal("want error for zero shard addresses")
	}
}

// TestCoordinatorPerShardBound checks the per-shard in-flight cap: with
// PerShard=1 and a shard that blocks, a second concurrent query waits for
// the semaphore rather than stacking a second request on the shard.
func TestCoordinatorPerShardBound(t *testing.T) {
	inflight := make(chan int, 16)
	gate := make(chan struct{})
	slow := NewWithRunner(func(ctx context.Context, q string, _ func([]string, []int64, int)) (swole.Explain, error) {
		inflight <- 1
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return swole.Explain{}, fmt.Errorf("test shard: no data")
	}, Config{Addr: "127.0.0.1:0", MaxInFlight: 8})
	startServer(t, slow)

	base := startCoordinator(t, CoordinatorConfig{
		Config:   Config{MaxInFlight: 8},
		Shards:   []string{slow.Addr()},
		PerShard: 1,
	})
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			body := strings.NewReader(`{"query": "SELECT SUM(b) FROM t", "timeout_ms": 2000}`)
			resp, err := http.Post(base+"/query", "application/json", body)
			if err != nil {
				results <- 0
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	// Exactly one request reaches the shard while the first is stuck.
	<-inflight
	select {
	case <-inflight:
		t.Error("second request reached the shard despite PerShard=1")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	<-results
	<-results
}
