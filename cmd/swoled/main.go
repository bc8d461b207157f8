// Command swoled serves SWOLE queries over HTTP.
//
// It loads a built-in dataset (the Figure 7 microbenchmark by default, or
// TPC-H with -tpch), then serves:
//
//	POST /query    {"query": "...", "timeout_ms": 100}  → columns, rows, explain
//	POST /ingest?table=r[&policy=skip]  (CSV body)      → rows accepted/rejected
//	GET  /explain?q=...                                 → explain only
//	GET  /metrics                                       → Prometheus text format
//	GET  /healthz                                       → ok / draining
//
// Queries are admission-controlled: -max-inflight execute concurrently,
// -max-queue wait, the rest get 429. Every query runs under -timeout
// unless the request carries its own timeout_ms. SIGINT/SIGTERM drains
// gracefully: in-flight queries finish (up to -drain), then the process
// exits 0.
//
// /ingest appends one CSV batch through the table's compiled ingestion
// kernel (fields line up positionally with the table's columns); appended
// rows are visible to the next /query. Batches share the query admission
// slots, and /metrics adds swole_ingest_queries_total{outcome},
// swole_ingest_rows_total, and swole_ingest_duration_seconds.
//
// The process uses its cores one way: -workers sizes the morsel gang every
// query scans on.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	swole "github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxInflight = flag.Int("max-inflight", 4, "queries executing concurrently")
		maxQueue    = flag.Int("max-queue", 16, "queries waiting for admission (beyond this: HTTP 429)")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-query deadline (0 = none)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight queries")

		tpch   = flag.Float64("tpch", 0, "load TPC-H at this scale factor instead of the microbenchmark")
		rows   = flag.Int("rows", 1_000_000, "microbenchmark fact-table rows")
		dim    = flag.Int("dim", 1_000, "microbenchmark dimension-table rows")
		groups = flag.Int("groups", 1_000, "microbenchmark group-key cardinality")

		workers = flag.Int("workers", 0, "morsel worker count per query (0 = GOMAXPROCS)")
	)
	flag.Parse()

	dt := *timeout
	if dt == 0 {
		dt = -1 // Config treats 0 as "use default"; flag 0 means no deadline
	}
	scfg := serve.Config{
		Addr:           *addr,
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: dt,
		DrainTimeout:   *drain,
	}

	start := time.Now()
	var db *swole.DB
	if *tpch > 0 {
		log.Printf("loading TPC-H sf=%g ...", *tpch)
		db = swole.LoadTPCH(*tpch)
	} else {
		log.Printf("loading microbenchmark (rows=%d dim=%d groups=%d) ...", *rows, *dim, *groups)
		var err error
		db, err = swole.LoadMicro(swole.MicroConfig{Rows: *rows, DimRows: *dim, GroupKeys: *groups})
		if err != nil {
			log.Fatalf("load dataset: %v", err)
		}
	}
	log.Printf("dataset ready in %v", time.Since(start).Round(time.Millisecond))
	db.SetWorkers(*workers)

	srv := serve.New(db, scfg)
	if err := srv.Start(); err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("swoled serving on %s (max-inflight=%d max-queue=%d timeout=%v)",
		srv.Addr(), *maxInflight, *maxQueue, *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	log.Printf("signal received, draining (budget %v) ...", *drain)
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
	db.Close()
	fmt.Println("swoled: drained, bye")
}
