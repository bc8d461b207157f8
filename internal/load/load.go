package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The closed-loop driver. Each connection is one goroutine pacing its own
// request schedule: with C connections targeting Q aggregate QPS, a
// connection owes one request every C/Q seconds, sleeps until its next
// slot, and — being closed-loop — never has more than one request in
// flight. A response slower than the interval puts the connection behind
// schedule; it then fires back-to-back until caught up, so sustained
// overload shows up as achieved QPS falling below target rather than as
// unbounded concurrency. Latencies land in per-connection histograms
// (no shared state on the hot path) merged after the run.
//
// Around the loop the driver scrapes the server's /metrics twice and
// diffs the counters, attributing the window's latency to execution vs
// admission queueing (the two serve-side histogram sums) and exposing the
// GC pause counters — the decomposition a tail-latency investigation
// starts from.

// Query is one entry in the workload mix.
type Query struct {
	SQL    string
	Weight int // relative frequency; <= 0 means 1
}

// Config parameterizes a load run.
type Config struct {
	// Addr is the server's base address: "host:port" or a full URL.
	Addr string
	// QPS is the aggregate target rate across all connections; 0 removes
	// pacing (each connection issues back-to-back requests).
	QPS float64
	// Conns is the number of concurrent closed-loop connections; default 4.
	Conns int
	// Duration bounds the run; default 10s.
	Duration time.Duration
	// Timeout is the per-request HTTP timeout; default 10s.
	Timeout time.Duration
	// Mix is the workload; required unless Ingest takes every slot.
	Mix []Query
	// Ingest configures the write side of a mixed read/write run; nil
	// means read-only.
	Ingest *IngestConfig
}

// IngestConfig is the write side of a mixed workload: every ingest slot
// POSTs the same CSV batch to /ingest.
type IngestConfig struct {
	// Percent of requests that are ingest batches, 1..100.
	Percent int
	// Table receives the batches.
	Table string
	// Body is the CSV batch posted on each ingest request.
	Body []byte
	// Policy is "strict" (default) or "skip".
	Policy string
}

// Outcomes counts finished requests by server classification (mirroring
// the serve package's outcome labels, keyed by HTTP status).
type Outcomes struct {
	OK        uint64 `json:"ok"`
	Rejected  uint64 `json:"rejected"`  // 429/503: admission refused
	Timeouts  uint64 `json:"timeouts"`  // 504: query deadline exceeded
	Errors    uint64 `json:"errors"`    // other statuses
	Transport uint64 `json:"transport"` // request never got a response
}

// Attribution is the server-side decomposition of the load window,
// computed by diffing two /metrics scrapes.
type Attribution struct {
	// Queries the server finished during the window.
	Queries uint64 `json:"queries"`
	// WaitSeconds is the total admission-queue wait; ExecSeconds is total
	// wall time minus it — what remains is actual execution.
	WaitSeconds float64 `json:"wait_seconds"`
	ExecSeconds float64 `json:"exec_seconds"`
	// GCPauses and GCCycles are the window's stop-the-world pause and
	// cycle counts; GCPauseMaxSeconds is the process-lifetime worst pause
	// (the runtime histogram has no resettable max).
	GCPauses          uint64  `json:"gc_pauses"`
	GCCycles          uint64  `json:"gc_cycles"`
	GCPauseMaxSeconds float64 `json:"gc_pause_max_seconds"`
	// IngestRows and IngestSeconds are the window's appended-row count and
	// server-side ingest wall time (its own histogram, so ExecSeconds
	// stays a pure read-execution figure); zero on read-only runs.
	IngestRows    uint64  `json:"ingest_rows,omitempty"`
	IngestSeconds float64 `json:"ingest_seconds,omitempty"`
}

// Report is a finished run, shaped for JSON (swoleload -json).
type Report struct {
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	Conns       int     `json:"conns"`
	DurationSec float64 `json:"duration_seconds"`
	Requests    uint64  `json:"requests"`

	Outcomes Outcomes `json:"outcomes"`

	// Latency quantiles in milliseconds, measured client-side request to
	// full response.
	P50ms  float64 `json:"p50_ms"`
	P90ms  float64 `json:"p90_ms"`
	P99ms  float64 `json:"p99_ms"`
	P999ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`

	// Ingest is present on mixed read/write runs: the write side's own
	// outcome and latency tallies. The top-level quantiles and outcomes
	// cover reads only, so a p99 gate bounds read latency unpolluted by
	// batch appends; ErrorRate spans both sides.
	Ingest *IngestStats `json:"ingest,omitempty"`

	// Server is nil when the /metrics scrape failed.
	Server *Attribution `json:"server,omitempty"`
}

// IngestStats is the write side of a mixed run's report.
type IngestStats struct {
	Requests     uint64   `json:"requests"`
	RowsAccepted uint64   `json:"rows_accepted"`
	RowsRejected uint64   `json:"rows_rejected"`
	Outcomes     Outcomes `json:"outcomes"`
	P50ms        float64  `json:"p50_ms"`
	P99ms        float64  `json:"p99_ms"`
	MaxMs        float64  `json:"max_ms"`
	MeanMs       float64  `json:"mean_ms"`
}

// ErrorRate is the fraction of requests — reads and ingests — that did
// not come back OK.
func (r *Report) ErrorRate() float64 {
	total, ok := r.Requests, r.Outcomes.OK
	if r.Ingest != nil {
		total += r.Ingest.Requests
		ok += r.Ingest.Outcomes.OK
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(ok)/float64(total)
}

// Gate checks the report against CI bounds: a p99 ceiling (0 disables)
// and a maximum error rate (negative disables). It returns one message
// per violation, empty when the run passes.
func (r *Report) Gate(maxP99 time.Duration, maxErrRate float64) []string {
	var v []string
	if r.Requests == 0 {
		return append(v, "no requests completed")
	}
	if maxP99 > 0 && time.Duration(r.P99ms*float64(time.Millisecond)) > maxP99 {
		v = append(v, fmt.Sprintf("p99 %.2fms exceeds gate %v", r.P99ms, maxP99))
	}
	if maxErrRate >= 0 {
		if rate := r.ErrorRate(); rate > maxErrRate {
			v = append(v, fmt.Sprintf("error rate %.4f exceeds gate %.4f (outcomes %+v)", rate, maxErrRate, r.Outcomes))
		}
	}
	return v
}

func (c Config) withDefaults() Config {
	if !strings.Contains(c.Addr, "://") {
		c.Addr = "http://" + c.Addr
	}
	c.Addr = strings.TrimRight(c.Addr, "/")
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// schedule expands the weighted mix into a deterministic round-robin
// cycle; connection i starts at offset i, so the mix interleaves across
// connections without shared state or randomness.
func schedule(mix []Query) []string {
	var cycle []string
	for _, q := range mix {
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		for i := 0; i < w; i++ {
			cycle = append(cycle, q.SQL)
		}
	}
	return cycle
}

// op is one slot of the combined read/write cycle.
type op struct {
	ingest bool
	sql    string
}

// buildCycle interleaves ingest slots into the read cycle at the
// configured percentage, spreading them evenly (Bresenham-style) so that
// writes arrive steadily rather than in bursts. The combined cycle spans
// 100 read-cycle repetitions, which preserves both the read weights and
// the ingest fraction exactly.
func buildCycle(mix []Query, ing *IngestConfig) []op {
	reads := schedule(mix)
	if ing == nil || ing.Percent <= 0 {
		ops := make([]op, len(reads))
		for i, sql := range reads {
			ops[i] = op{sql: sql}
		}
		return ops
	}
	p := ing.Percent
	if p > 100 {
		p = 100
	}
	n := 100
	if len(reads) > 0 {
		n = 100 * len(reads)
	}
	ops := make([]op, 0, n)
	acc, ri := 0, 0
	for i := 0; i < n; i++ {
		acc += p
		if acc >= 100 {
			acc -= 100
			ops = append(ops, op{ingest: true})
		} else {
			ops = append(ops, op{sql: reads[ri%len(reads)]})
			ri++
		}
	}
	return ops
}

// connResult is one connection's private tally, merged after the run.
type connResult struct {
	hist Hist
	out  Outcomes

	ingestHist     Hist
	ingestOut      Outcomes
	ingestAccepted uint64
	ingestRejected uint64
}

// Run drives the configured load against the server and reports. It
// returns an error only for unusable configuration or a totally
// unreachable server; per-request failures are counted, not fatal.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Mix) == 0 && (cfg.Ingest == nil || cfg.Ingest.Percent < 100) {
		return nil, fmt.Errorf("load: empty query mix")
	}
	if cfg.Ingest != nil && cfg.Ingest.Percent > 0 {
		if cfg.Ingest.Table == "" {
			return nil, fmt.Errorf("load: ingest mix needs a table")
		}
		if len(cfg.Ingest.Body) == 0 {
			return nil, fmt.Errorf("load: ingest mix needs a CSV body")
		}
	}
	cycle := buildCycle(cfg.Mix, cfg.Ingest)

	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Conns,
			MaxIdleConnsPerHost: cfg.Conns,
		},
	}
	defer client.CloseIdleConnections()

	before, scrapeErr := scrape(ctx, client, cfg.Addr)

	interval := time.Duration(0)
	if cfg.QPS > 0 {
		interval = time.Duration(float64(cfg.Conns) / cfg.QPS * float64(time.Second))
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	results := make([]connResult, cfg.Conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			drive(runCtx, client, cfg.Addr, cycle, c, interval, cfg.Ingest, &results[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		TargetQPS:   cfg.QPS,
		Conns:       cfg.Conns,
		DurationSec: elapsed.Seconds(),
	}
	addOutcomes := func(dst, o *Outcomes) {
		dst.OK += o.OK
		dst.Rejected += o.Rejected
		dst.Timeouts += o.Timeouts
		dst.Errors += o.Errors
		dst.Transport += o.Transport
	}
	var hist, ingestHist Hist
	var ingest IngestStats
	for i := range results {
		hist.Merge(&results[i].hist)
		addOutcomes(&rep.Outcomes, &results[i].out)
		ingestHist.Merge(&results[i].ingestHist)
		addOutcomes(&ingest.Outcomes, &results[i].ingestOut)
		ingest.RowsAccepted += results[i].ingestAccepted
		ingest.RowsRejected += results[i].ingestRejected
	}
	rep.Requests = hist.Count() + rep.Outcomes.Transport
	ingest.Requests = ingestHist.Count() + ingest.Outcomes.Transport
	rep.AchievedQPS = float64(rep.Requests+ingest.Requests) / elapsed.Seconds()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep.P50ms = ms(hist.Quantile(0.50))
	rep.P90ms = ms(hist.Quantile(0.90))
	rep.P99ms = ms(hist.Quantile(0.99))
	rep.P999ms = ms(hist.Quantile(0.999))
	rep.MaxMs = ms(hist.Max())
	rep.MeanMs = ms(hist.Mean())
	if cfg.Ingest != nil && cfg.Ingest.Percent > 0 {
		ingest.P50ms = ms(ingestHist.Quantile(0.50))
		ingest.P99ms = ms(ingestHist.Quantile(0.99))
		ingest.MaxMs = ms(ingestHist.Max())
		ingest.MeanMs = ms(ingestHist.Mean())
		rep.Ingest = &ingest
	}

	if scrapeErr == nil {
		if after, err := scrape(ctx, client, cfg.Addr); err == nil {
			rep.Server = attribute(before, after)
		}
	}
	return rep, nil
}

// drive is one connection's closed loop: pace, pick the next slot from
// the cycle, POST it (query or ingest batch), classify, record.
func drive(ctx context.Context, client *http.Client, base string, cycle []op, conn int, interval time.Duration, ing *IngestConfig, res *connResult) {
	next := time.Now()
	for i := 0; ; i++ {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return
				}
			}
			next = next.Add(interval)
		}
		if ctx.Err() != nil {
			return
		}
		slot := cycle[(conn+i)%len(cycle)]
		hist, out := &res.hist, &res.out
		var d time.Duration
		var status int
		var err error
		if slot.ingest {
			hist, out = &res.ingestHist, &res.ingestOut
			var accepted, rejected uint64
			d, status, accepted, rejected, err = postIngest(ctx, client, base, ing)
			res.ingestAccepted += accepted
			res.ingestRejected += rejected
		} else {
			d, status, err = post(ctx, client, base, slot.sql)
		}
		if err != nil {
			if ctx.Err() != nil {
				return // run deadline, not a server failure
			}
			out.Transport++
			continue
		}
		hist.Record(d)
		switch {
		case status == http.StatusOK:
			out.OK++
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			out.Rejected++
		case status == http.StatusGatewayTimeout:
			out.Timeouts++
		default:
			out.Errors++
		}
	}
}

// post issues one query and measures request-to-drained-response latency.
func post(ctx context.Context, client *http.Client, base, sql string) (time.Duration, int, error) {
	body, _ := json.Marshal(map[string]string{"query": sql})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode, nil
}

// postIngest issues one CSV batch to /ingest and reads back the report's
// row counts.
func postIngest(ctx context.Context, client *http.Client, base string, ing *IngestConfig) (time.Duration, int, uint64, uint64, error) {
	url := base + "/ingest?table=" + ing.Table
	if ing.Policy != "" {
		url += "&policy=" + ing.Policy
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(ing.Body))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	req.Header.Set("Content-Type", "text/csv")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	var rep struct {
		Accepted uint64 `json:"accepted"`
		Rejected uint64 `json:"rejected"`
	}
	_ = json.Unmarshal(raw, &rep)
	return d, resp.StatusCode, rep.Accepted, rep.Rejected, nil
}

// scrape fetches /metrics and extracts the unlabeled counters the
// attribution needs (histogram sums/counts and the GC figures).
func scrape(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: /metrics returned %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			vals[name] = f
		}
	}
	return vals, nil
}

// attribute diffs two scrapes into the window's server-side story.
func attribute(before, after map[string]float64) *Attribution {
	d := func(name string) float64 { return after[name] - before[name] }
	total := d("swole_query_duration_seconds_sum")
	wait := d("swole_admission_wait_seconds_sum")
	exec := total - wait
	if exec < 0 {
		exec = 0
	}
	return &Attribution{
		Queries:           uint64(d("swole_query_duration_seconds_count")),
		WaitSeconds:       wait,
		ExecSeconds:       exec,
		GCPauses:          uint64(d("swole_gc_pauses_total")),
		GCCycles:          uint64(d("swole_gc_cycles_total")),
		GCPauseMaxSeconds: after["swole_gc_pause_max_seconds"],
		IngestRows:        uint64(d("swole_ingest_rows_total")),
		IngestSeconds:     d("swole_ingest_duration_seconds_sum"),
	}
}
