// Command swoleload drives a running swoled with closed-loop load and
// reports tail latency.
//
//	swoleload -addr localhost:8080 -qps 200 -conns 8 -duration 30s \
//	    -query 'select sum(r_a) from r where r_x < 50@3' \
//	    -query 'select r_c, sum(r_a) from r where r_x < 50 group by r_c@1' \
//	    -json serving.json -gate-p99 250ms -gate-errors 0
//
// Each -query takes "sql@weight" (weight optional, default 1); the mix is
// interleaved deterministically across connections. The run prints a
// human summary, optionally writes the full report as JSON, and exits
// nonzero when a gate fails — CI wires -gate-p99 and -gate-errors
// directly into the job result.
//
// -ingest-weight N makes N percent of the requests CSV batches POSTed to
// /ingest (a mixed read/write workload):
//
//	swoleload -ingest-weight 10 -ingest-rows 64 -duration 30s \
//	    -gate-p99 250ms -gate-errors 0
//
// Batches come from -ingest-file, or — against the default swoled
// microbenchmark — from a generated batch of -ingest-rows valid rows for
// the fact table r. Ingest latencies and outcomes are reported (and
// gated) separately from reads: -gate-p99 bounds read latency alone,
// -gate-errors spans both sides.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/reprolab/swole/internal/load"
)

// queryFlags collects repeated -query flags, each "sql@weight".
type queryFlags []load.Query

func (q *queryFlags) String() string { return fmt.Sprintf("%d queries", len(*q)) }

func (q *queryFlags) Set(s string) error {
	sql, weight := s, 1
	// The weight suffix is the part after the LAST @ — SQL text contains
	// no @, but guard against one anyway by requiring an integer suffix.
	if at := strings.LastIndex(s, "@"); at > 0 {
		if w, err := strconv.Atoi(s[at+1:]); err == nil {
			if w <= 0 {
				return fmt.Errorf("weight must be positive in %q", s)
			}
			sql, weight = s[:at], w
		}
	}
	if strings.TrimSpace(sql) == "" {
		return fmt.Errorf("empty query")
	}
	*q = append(*q, load.Query{SQL: sql, Weight: weight})
	return nil
}

// defaultMix exercises the serving path's main shapes against the swoled
// microbenchmark dataset: a masked scalar aggregate and a grouped one.
var defaultMix = []load.Query{
	{SQL: "select sum(r_a) from r where r_x < 50", Weight: 3},
	{SQL: "select r_c, sum(r_a) from r where r_x < 50 group by r_c", Weight: 1},
}

// microBatch generates n valid CSV rows for the swoled microbenchmark
// fact table r (r_a, r_b, r_x, r_y, r_c, r_fk). Values stay inside the
// loaded columns' physical widths and r_fk inside the dimension's first
// 100 keys, so batches append under strict policy against any -dim ≥ 100.
func microBatch(n int) []byte {
	if n <= 0 {
		n = 64
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,1,%d,1,%d,%d\n", i%9, i%100, i%8, i%100)
	}
	return []byte(b.String())
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "swoled address (host:port or URL)")
		qps      = flag.Float64("qps", 100, "aggregate target rate; 0 = unpaced")
		conns    = flag.Int("conns", 4, "closed-loop connections")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request HTTP timeout")
		jsonPath = flag.String("json", "", "write the full report to this file")

		gateP99    = flag.Duration("gate-p99", 0, "fail when the read p99 exceeds this (0 = off)")
		gateErrors = flag.Float64("gate-errors", -1, "fail when the error rate across reads and ingests exceeds this fraction (negative = off)")

		ingestWeight = flag.Int("ingest-weight", 0, "percent of requests that are CSV batches POSTed to /ingest (0 = read-only)")
		ingestTable  = flag.String("ingest-table", "r", "table the batches append to")
		ingestFile   = flag.String("ingest-file", "", "CSV batch to POST (default: generate -ingest-rows micro fact-table rows)")
		ingestRows   = flag.Int("ingest-rows", 64, "rows per generated batch when -ingest-file is unset")
		ingestPolicy = flag.String("ingest-policy", "strict", "malformed-row policy: strict or skip")
	)
	var mix queryFlags
	flag.Var(&mix, "query", "workload entry \"sql@weight\" (repeatable; default: built-in micro mix)")
	flag.Parse()
	if len(mix) == 0 {
		mix = defaultMix
	}

	var ingest *load.IngestConfig
	if *ingestWeight > 0 {
		body := microBatch(*ingestRows)
		if *ingestFile != "" {
			b, err := os.ReadFile(*ingestFile)
			if err != nil {
				log.Fatalf("swoleload: %v", err)
			}
			body = b
		}
		ingest = &load.IngestConfig{
			Percent: *ingestWeight,
			Table:   *ingestTable,
			Body:    body,
			Policy:  *ingestPolicy,
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("swoleload: %d conns, target %.0f qps, %v against %s", *conns, *qps, *duration, *addr)
	if ingest != nil {
		log.Printf("swoleload: %d%% of requests are %d-byte ingest batches to table %s", ingest.Percent, len(ingest.Body), ingest.Table)
	}
	rep, err := load.Run(ctx, load.Config{
		Addr:     *addr,
		QPS:      *qps,
		Conns:    *conns,
		Duration: *duration,
		Timeout:  *timeout,
		Mix:      mix,
		Ingest:   ingest,
	})
	if err != nil {
		log.Fatalf("swoleload: %v", err)
	}

	fmt.Printf("requests %d  achieved %.1f qps (target %.1f)\n", rep.Requests, rep.AchievedQPS, rep.TargetQPS)
	fmt.Printf("latency ms  p50 %.2f  p90 %.2f  p99 %.2f  p999 %.2f  max %.2f  mean %.2f\n",
		rep.P50ms, rep.P90ms, rep.P99ms, rep.P999ms, rep.MaxMs, rep.MeanMs)
	fmt.Printf("outcomes    ok %d  rejected %d  timeouts %d  errors %d  transport %d\n",
		rep.Outcomes.OK, rep.Outcomes.Rejected, rep.Outcomes.Timeouts, rep.Outcomes.Errors, rep.Outcomes.Transport)
	if ing := rep.Ingest; ing != nil {
		fmt.Printf("ingest      %d batches  rows %d accepted %d rejected  p50 %.2fms  p99 %.2fms  max %.2fms\n",
			ing.Requests, ing.RowsAccepted, ing.RowsRejected, ing.P50ms, ing.P99ms, ing.MaxMs)
		fmt.Printf("ingest      ok %d  rejected %d  timeouts %d  errors %d  transport %d\n",
			ing.Outcomes.OK, ing.Outcomes.Rejected, ing.Outcomes.Timeouts, ing.Outcomes.Errors, ing.Outcomes.Transport)
	}
	if s := rep.Server; s != nil {
		fmt.Printf("server      %d queries  exec %.2fs  queue-wait %.2fs  gc pauses %d (max %.1fms, %d cycles)\n",
			s.Queries, s.ExecSeconds, s.WaitSeconds, s.GCPauses, s.GCPauseMaxSeconds*1000, s.GCCycles)
		if s.IngestRows > 0 {
			fmt.Printf("server      %d rows appended in %.2fs of server-side ingest time\n", s.IngestRows, s.IngestSeconds)
		}
		if s.ShardQueries > 0 {
			fmt.Printf("coordinator %d shard dispatches (swole_shard_queries_total)\n", s.ShardQueries)
		}
	} else {
		fmt.Println("server      /metrics scrape unavailable; no attribution")
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("swoleload: marshal report: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			log.Fatalf("swoleload: write %s: %v", *jsonPath, err)
		}
		log.Printf("report written to %s", *jsonPath)
	}

	if violations := rep.Gate(*gateP99, *gateErrors); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "GATE FAILED: "+v)
		}
		os.Exit(2)
	}
}
