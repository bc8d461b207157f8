// Command swolebench regenerates the measured experiments of the paper:
// Figure 6 (TPC-H under volcano/data-centric/hybrid/SWOLE) and Figures
// 8-12 (the technique microbenchmarks). Every series the engine can run is
// timed on the engine's own plan; see internal/harness.
//
// Usage:
//
//	swolebench -fig 6            # one figure
//	swolebench -fig all          # everything
//	swolebench -fig 2            # the technique summary table
//	swolebench -fig scaling -workers 8   # morsel scaling sweep, 1..8 workers
//	swolebench -repeat 10        # steady state: cold vs plan-cached warm runs,
//	                             # with each statement's kernel-variant counters
//	swolebench -query 'select r_c, count(*) as n from r group by r_c having n > 10'
//	                             # one arbitrary statement: synthesized plan + timings
//	swolebench -ingest batch.csv -repeat 5
//	                             # append a CSV batch through the ingestion
//	                             # kernel 5 times; decode+append throughput
//	swolebench -repeat 10 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Scales come from the environment (SWOLE_SF, SWOLE_MICRO_R, SWOLE_REPS,
// SWOLE_WORKERS); see internal/harness. Paper scales are SF=10 and R=100M —
// set them only on hardware comparable to the paper's.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/reprolab/swole/internal/harness"
	"github.com/reprolab/swole/internal/tpch"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "swolebench:", err)
		os.Exit(1)
	}
}

// realMain carries the program body so that os.Exit cannot skip the
// profile-flushing defers.
func realMain() error {
	fig := flag.String("fig", "all", "figure to regenerate: 2, 6, 8, 9, 10, 11, 12, scaling, or all")
	csv := flag.Bool("csv", false, "emit micro figures as CSV for plotting")
	workers := flag.Int("workers", 0, "max morsel workers the scaling figure sweeps to (0 = SWOLE_WORKERS or GOMAXPROCS)")
	repeat := flag.Int("repeat", 0, "steady-state demo: run each supported query shape N times and report cold vs plan-cached warm timings and the kernel-variant counters")
	query := flag.String("query", "", "run one arbitrary SQL statement against the micro dataset and report its synthesized plan, cold timing, and plan-cached warm timing")
	ingestFile := flag.String("ingest", "", "append this CSV file to the micro dataset through the table's ingestion kernel and report decode+append throughput (-repeat batches)")
	ingestTable := flag.String("ingest-table", "r", "table -ingest appends to (CSV fields line up with its columns)")
	ingestPolicy := flag.String("ingest-policy", "strict", "malformed-row policy for -ingest: strict (refuse the batch) or skip (drop and attribute)")
	timeout := flag.Duration("timeout", 0, "per-query deadline for -repeat runs; deadline-exceeded runs are counted and reported separately (0 = no deadline)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "swolebench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "swolebench:", err)
			}
		}()
	}

	cfg := harness.FromEnv()
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *ingestFile != "" {
		return runIngest(cfg, *ingestFile, *ingestTable, *ingestPolicy, *repeat)
	}
	if *query != "" {
		return runQuery(cfg, *query, *repeat, *timeout)
	}
	if *repeat > 0 {
		return runSteady(cfg, *repeat, *timeout)
	}
	fmt.Printf("config: SF=%g micro R=%d reps=%d workers=%d\n\n", cfg.SF, cfg.MicroR, cfg.Reps, cfg.Workers)

	show := func(figs []harness.Figure) {
		for _, f := range figs {
			if *csv {
				fmt.Printf("# %s: %s\n%s\n", f.ID, f.Title, f.CSV())
			} else {
				fmt.Println(f.Format())
			}
		}
	}
	run := func(name string) error {
		switch name {
		case "2":
			fmt.Println(techniqueTable)
		case "6":
			rows, err := cfg.Fig6()
			if err != nil {
				return err
			}
			fmt.Println("Figure 6: TPC-H (runtimes; hy/dc and sw/hy are the paper's speedup columns;")
			fmt.Println("swole ran: the engine plan's technique, or a hand-written kernel's)")
			fmt.Println(harness.FormatFig6(rows))
			fmt.Println("Hand-written SWOLE kernels (paper Section IV-A):")
			for _, ex := range tpch.ExplainSwole() {
				fmt.Printf("  %-4s %s\n", ex.Query, ex.Rationale)
			}
		case "8":
			show(cfg.Fig8())
		case "9":
			show(cfg.Fig9())
		case "10":
			show(cfg.Fig10())
		case "11":
			show(cfg.Fig11())
		case "12":
			show(cfg.Fig12())
		case "scaling":
			show(cfg.FigScaling())
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
		return nil
	}

	var figs []string
	if *fig == "all" {
		figs = []string{"2", "6", "8", "9", "10", "11", "12", "scaling"}
	} else {
		figs = []string{*fig}
	}
	for _, f := range figs {
		if err := run(f); err != nil {
			return err
		}
	}
	return nil
}

// techniqueTable is the paper's Figure 2.
const techniqueTable = `Figure 2: Summary of SWOLE Techniques
Section  Technique           Operators                               Heuristics
III-A    Value Masking       All                                     Memory-Bound, Small Hash Tables
III-B    Key Masking         Group-By Aggregation, Join, Groupjoin   Complex Aggregation, Large Hash Tables
III-C    Access Merging      All                                     Always Better
III-D    Positional Bitmaps  Join, Semijoin                          Always Better
III-E    Eager Aggregation   Join, Groupjoin                         Low-Cardinality Group-By Keys`
