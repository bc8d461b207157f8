// TPC-H walkthrough: generate the built-in dataset, run the paper's eight
// evaluated queries under every strategy, verify the answers agree, and
// print the runtimes (a miniature of the paper's Figure 6). The "ran on"
// column says whether hybrid and SWOLE were the engine's own plans or
// hand-written kernels (for the queries the plan synthesizer declines).
//
//	go run ./examples/tpch            # SF 0.05
//	SWOLE_SF=0.2 go run ./examples/tpch
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"github.com/reprolab/swole/internal/tpch"
)

func main() {
	sf := 0.05
	if v := os.Getenv("SWOLE_SF"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			sf = f
		}
	}
	fmt.Printf("generating TPC-H-alike data at SF %g...\n", sf)
	d := tpch.Generate(sf)

	fmt.Printf("%-5s %12s %12s %12s %12s  %-7s %s\n",
		"query", "volcano", "datacentric", "hybrid", "swole", "ran on", "check")
	for _, q := range tpch.Queries {
		var ref tpch.Rows
		times := map[tpch.Strategy]time.Duration{}
		ok := true
		for _, s := range tpch.Strategies {
			// An engine plan compiles here, outside the timed run.
			run, err := d.Prepare(q, s)
			if err != nil {
				log.Fatalf("%s %s: %v", q, s, err)
			}
			start := time.Now()
			rows, _, err := run()
			if err != nil {
				log.Fatalf("%s %s: %v", q, s, err)
			}
			times[s] = time.Since(start)
			if s == tpch.Volcano {
				ref = rows
			} else if !rows.Equal(ref) {
				ok = false
			}
		}
		check := "answers agree"
		if !ok {
			check = "MISMATCH"
		}
		ranOn := "hand"
		if tpch.OnEngine(q, tpch.Swole) {
			ranOn = "engine"
		}
		fmt.Printf("%-5s %12s %12s %12s %12s  %-7s %s\n", q,
			times[tpch.Volcano].Round(time.Microsecond),
			times[tpch.DataCentric].Round(time.Microsecond),
			times[tpch.Hybrid].Round(time.Microsecond),
			times[tpch.Swole].Round(time.Microsecond),
			ranOn, check)
	}

	// Show one full answer rendered through the public API.
	fmt.Println("\nQ1 answer (SWOLE):")
	rows, err := d.Run(tpch.Q1, tpch.Swole)
	if err != nil {
		log.Fatal(err)
	}
	flagD := d.Lineitem.FlagDict
	statusD := d.Lineitem.StatusDict
	fmt.Println("flag status sum_qty sum_base sum_disc_price sum_charge count")
	for _, r := range rows {
		fmt.Printf("%-4s %-6s %7d %8d %14d %10d %5d\n",
			flagD.Value(int(r[0])), statusD.Value(int(r[1])), r[2], r[3], r[4], r[5], r[9])
	}
}
