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
// swole_ingest_rows_total, and swole_ingest_duration_seconds. Coordinator
// mode has no local data and answers /ingest with 501.
//
// Inside one process the cores are used one way: -workers sizes the morsel
// gang every query scans on. Across processes (see README "Scaling out"):
//
//	-shards a,b,...   coordinator mode: no local data — every query
//	                  scatter-gathers over the listed shard processes
//	                  (each an ordinary swoled serving one row range)
//	                  and merges the partials; a shard 429 or timeout
//	                  fails the query with per-shard attribution in the
//	                  explain. -per-shard bounds outstanding requests
//	                  per shard. The /metrics page adds
//	                  swole_shard_queries_total{shard}.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
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

		workers   = flag.Int("workers", 0, "morsel worker count per query (0 = GOMAXPROCS)")
		partition = flag.String("partition", "auto", "radix partitioning mode: auto, on, or off")

		shards   = flag.String("shards", "", "coordinator mode: comma-separated shard addresses (host:port); no local data is loaded")
		perShard = flag.Int("per-shard", 4, "coordinator mode: outstanding requests per shard")
	)
	flag.Parse()

	var pmode swole.PartitionMode
	switch *partition {
	case "auto":
		pmode = swole.PartitionAuto
	case "on":
		pmode = swole.PartitionOn
	case "off":
		pmode = swole.PartitionOff
	default:
		log.Fatalf("bad -partition %q: want auto, on, or off", *partition)
	}

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

	var (
		db  *swole.DB
		srv *serve.Server
		err error
	)
	if *shards != "" {
		addrs := strings.Split(*shards, ",")
		srv, err = serve.NewCoordinator(serve.CoordinatorConfig{
			Config:   scfg,
			Shards:   addrs,
			PerShard: *perShard,
		})
		if err != nil {
			log.Fatalf("coordinator: %v", err)
		}
		if err := srv.Start(); err != nil {
			log.Fatalf("listen: %v", err)
		}
		log.Printf("swoled coordinating %d shards on %s (per-shard=%d max-inflight=%d max-queue=%d timeout=%v)",
			len(addrs), srv.Addr(), *perShard, *maxInflight, *maxQueue, *timeout)
	} else {
		start := time.Now()
		if *tpch > 0 {
			log.Printf("loading TPC-H sf=%g ...", *tpch)
			db = swole.LoadTPCH(*tpch)
		} else {
			log.Printf("loading microbenchmark (rows=%d dim=%d groups=%d) ...", *rows, *dim, *groups)
			db, err = swole.LoadMicro(swole.MicroConfig{Rows: *rows, DimRows: *dim, GroupKeys: *groups})
			if err != nil {
				log.Fatalf("load dataset: %v", err)
			}
		}
		log.Printf("dataset ready in %v", time.Since(start).Round(time.Millisecond))
		db.SetWorkers(*workers)
		db.SetPartitionMode(pmode)

		srv = serve.New(db, scfg)
		if err := srv.Start(); err != nil {
			log.Fatalf("listen: %v", err)
		}
		log.Printf("swoled serving on %s (max-inflight=%d max-queue=%d timeout=%v)",
			srv.Addr(), *maxInflight, *maxQueue, *timeout)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	log.Printf("signal received, draining (budget %v) ...", *drain)
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
	if db != nil {
		db.Close()
	}
	fmt.Println("swoled: drained, bye")
}
