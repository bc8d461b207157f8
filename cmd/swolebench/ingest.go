package main

import (
	"context"
	"fmt"
	"os"
	"time"

	swole "github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/harness"
)

// runIngest benchmarks the CSV write path from the CLI (-ingest):
// load the micro dataset, append the file's CSV rows through the table's
// compiled ingestion kernel -repeat times, and report per-batch decode+
// append throughput plus what the appends did to a warm read plan (the
// incremental stats merge, and the stale plan's re-prepare).
func runIngest(cfg harness.Config, path, table, policy string, repeat int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var pol swole.IngestPolicy
	switch policy {
	case "", "strict":
		pol = swole.IngestStrict
	case "skip":
		pol = swole.IngestSkip
	default:
		return fmt.Errorf("-ingest-policy must be strict or skip, not %q", policy)
	}
	if repeat < 1 {
		repeat = 1
	}

	db, _, err := loadMicro(cfg)
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Printf("ingest: %s → table %s (policy %s, %d batch(es) of %d bytes)\n",
		path, table, policy, repeat, len(data))
	fmt.Printf("dataset: R=%d rows, workers=%d\n\n", cfg.MicroR, cfg.Workers)

	// Warm a read plan first so the post-append run shows the
	// invalidation protocol (stats merge + re-prepare), not a
	// cold-start artifact.
	const readQ = "select sum(r_a) from r where r_x < 50"
	ctx := context.Background()
	if _, _, err := db.QueryContext(ctx, readQ); err != nil {
		return err
	}
	if _, _, err := db.QueryContext(ctx, readQ); err != nil {
		return err
	}

	var accepted, rejected int
	var total time.Duration
	for i := 0; i < repeat; i++ {
		start := time.Now()
		rep, err := db.AppendCSV(table, data, pol)
		d := time.Since(start)
		if err != nil {
			fmt.Printf("batch %d: refused after %v: %v\n", i, d.Round(time.Microsecond), err)
			for _, e := range rep.Errors {
				fmt.Println("  ", e)
			}
			return fmt.Errorf("ingest failed on batch %d", i)
		}
		accepted += rep.Accepted
		rejected += rep.Rejected
		total += d
		rows := rep.Accepted + rep.Rejected
		fmt.Printf("batch %d: %d accepted, %d rejected in %v  (%.2f Mrows/s, %.1f MB/s)\n",
			i, rep.Accepted, rep.Rejected, d.Round(time.Microsecond),
			float64(rows)/d.Seconds()/1e6, float64(len(data))/d.Seconds()/1e6)
		for _, e := range rep.Errors {
			fmt.Println("  ", e)
		}
	}
	fmt.Printf("\ntotal: %d rows accepted, %d rejected in %v (%.2f Mrows/s)\n",
		accepted, rejected, total.Round(time.Microsecond),
		float64(accepted+rejected)/total.Seconds()/1e6)

	// The appends made this table's plans stale and merged its cached stats;
	// show the re-prepare and the steady state after it.
	start := time.Now()
	_, ex, err := db.QueryContext(ctx, readQ)
	if err != nil {
		return err
	}
	fmt.Printf("\nread after ingest:  %v  plan-cached=%v stats-cached=%v  (recompile over merged stats)\n",
		time.Since(start).Round(time.Microsecond), ex.PlanCached, ex.StatsCached)
	start = time.Now()
	_, ex, err = db.QueryContext(ctx, readQ)
	if err != nil {
		return err
	}
	fmt.Printf("read again:         %v  plan-cached=%v\n",
		time.Since(start).Round(time.Microsecond), ex.PlanCached)
	return nil
}
