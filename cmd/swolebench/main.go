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
//	swolebench -fig 8 -csv       # micro figures as CSV for plotting
//	swolebench -fig 6 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Scales come from the environment (SWOLE_SF, SWOLE_MICRO_R, SWOLE_REPS);
// see internal/harness. Paper scales are SF=10 and R=100M —
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
	fig := flag.String("fig", "all", "figure to regenerate: 2, 6, 8, 9, 10, 11, 12, or all")
	csv := flag.Bool("csv", false, "emit micro figures as CSV for plotting")
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
	fmt.Printf("config: SF=%g micro R=%d reps=%d\n\n", cfg.SF, cfg.MicroR, cfg.Reps)

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
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
		return nil
	}

	var figs []string
	if *fig == "all" {
		figs = []string{"2", "6", "8", "9", "10", "11", "12"}
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
