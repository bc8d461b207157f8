// Command swoleload drives a running swoled with closed-loop load, reports
// tail latency, and exits nonzero when the run fails its gates. It runs
// one load shape, CI's (the constants below), read-only or with a share
// of CSV ingest batches:
//
//	swoleload -addr 127.0.0.1:8080 -json serving.json -gate-p99 250ms
//	swoleload -addr 127.0.0.1:8080 -ingest-weight 10 \
//	    -json serving-mixed.json -gate-p99 226ms
//
// Eight closed-loop connections pace toward 100 requests a second for 30
// seconds. Every connection starts its schedule when the run starts and
// owes one request every 80 ms, so the load arrives as 8 requests at once
// every 80 ms, not one request every 10 ms; against swoled's default 4
// execution slots, up to half of each burst waits in the admission queue,
// and that wait is part of the measured latency.
//
// Reads cycle through a fixed 3:1 mix of a masked scalar aggregate and a
// grouped one. -ingest-weight N makes N percent of the requests 64-row
// batches of valid fact-table rows POSTed to /ingest?table=r&policy=strict,
// spread evenly through the cycle; N must lie in 0..99. Ingest latencies
// and outcomes are reported separately from reads: -gate-p99 bounds read
// latency alone. Every request, read or ingest, must come back OK, or the
// run fails.
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
)

// The load shape CI's serving-latency job gates.
const (
	ciQPS          = 100
	ciConns        = 8
	ciDuration     = 30 * time.Second
	requestTimeout = 10 * time.Second

	scalarSQL  = "select sum(r_a) from r where r_x < 50"
	groupedSQL = "select r_c, sum(r_a) from r where r_x < 50 group by r_c"

	batchRows  = 64
	ingestPath = "/ingest?table=r&policy=strict"
)

// readCycle is the read mix, three scalar aggregates to one grouped one.
var readCycle = []string{scalarSQL, scalarSQL, scalarSQL, groupedSQL}

// microBatch generates batchRows valid CSV rows for the swoled
// microbenchmark fact table r (r_a, r_b, r_x, r_y, r_c, r_fk). Values stay
// inside the loaded columns' physical widths and r_fk inside the
// dimension's first 100 keys, so batches append under strict policy
// against any -dim ≥ 100.
func microBatch() []byte {
	var b strings.Builder
	for i := 0; i < batchRows; i++ {
		fmt.Fprintf(&b, "%d,1,%d,1,%d,%d\n", i%9, i%100, i%8, i%100)
	}
	return []byte(b.String())
}

// ingestWeight is -ingest-weight, the percent of requests that are ingest
// batches. Set refuses a weight outside 0..99, which the flag package
// reports at parse with exit status 2: 100 or more leaves the cycle no
// reads to gate, and a negative weight is no share at all.
type ingestWeight int

func (w *ingestWeight) String() string { return strconv.Itoa(int(*w)) }

func (w *ingestWeight) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	if n < 0 || n > 99 {
		return fmt.Errorf("%d is not a percent in 0..99", n)
	}
	*w = ingestWeight(n)
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "swoled address (host:port or URL)")
		jsonPath = flag.String("json", "", "write the full report to this file")
		gateP99  = flag.Duration("gate-p99", 0, "fail when the read p99 exceeds this (0 = off)")
		weight   ingestWeight
	)
	flag.Var(&weight, "ingest-weight", "`percent` of requests that are CSV batches POSTed to /ingest, 0..99 (0 = read-only)")
	flag.Parse()

	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("swoleload: %d conns, target %d qps, %v against %s", ciConns, ciQPS, ciDuration, base)
	if weight > 0 {
		log.Printf("swoleload: %d%% of requests are %d-row ingest batches to %s", weight, batchRows, ingestPath)
	}
	rep := run(ctx, base, ciQPS, ciConns, ciDuration, int(weight))

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

	if violations := rep.gate(*gateP99); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "GATE FAILED: "+v)
		}
		os.Exit(2)
	}
}
