// Cost model exploration: sweep predicate selectivity and group-by
// cardinality, print the technique SWOLE's cost models choose at each
// point, and compare the prediction against the engine's plans forced onto
// each strategy (DB.CompareStrategies) — a miniature of the paper's Figures
// 8 and 9 with the model overlaid.
//
//	go run ./examples/costmodel
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/cost"
)

func main() {
	p := cost.Default()
	const rows = 1_000_000
	db, err := swole.LoadMicro(swole.MicroConfig{Rows: rows})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Scalar aggregation (micro Q1, sum(r_a*r_b)): model choice vs the engine's forced plans")
	fmt.Printf("%-8s %-16s %s\n", "sel(%)", "model picks", "measured (each run's Explain.Technique)")
	comp := p.CompMul + p.CompAdd
	for sel := 0; sel <= 100; sel += 20 {
		strat, _ := p.ChooseScalarAgg(rows, float64(sel)/100, comp)
		runs, err := db.CompareStrategies(fmt.Sprintf("select sum(r_a * r_b) from r where r_x < %d and r_y = 1", sel))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-16s", sel, strat)
		for _, r := range runs {
			fmt.Printf(" %s=%s", r.Explain.Technique, r.Runtime.Round(10*time.Microsecond))
		}
		fmt.Println()
	}

	fmt.Println("\nGroup-by aggregation (micro Q2): model choice across hash table sizes")
	fmt.Printf("%-10s %-8s %-16s\n", "groups", "sel(%)", "model picks")
	for _, groups := range []int{10, 1000, 100_000, 10_000_000} {
		for _, sel := range []int{10, 50, 90} {
			ht := groups * 26 // approximate slot bytes
			strat, _ := p.ChooseGroupAgg(100_000_000, float64(sel)/100, comp, 1, ht)
			fmt.Printf("%-10d %-8d %-16s\n", groups, sel, strat)
		}
	}

	fmt.Println("\nGroupjoin vs eager aggregation (micro Q5): crossover by |S|")
	fmt.Printf("%-10s %-8s %-10s %14s %14s\n", "|S|", "sel(%)", "eager?", "cost(gj)", "cost(ea)")
	for _, ns := range []int{1000, 1_000_000} {
		for _, sel := range []int{10, 50, 90} {
			eager, gj, ea := p.ChooseGroupjoin(ns, float64(sel)/100, 100_000_000, 1.0, float64(sel)/100, comp, ns*26)
			fmt.Printf("%-10d %-8d %-10v %14.0f %14.0f\n", ns, sel, eager, gj, ea)
		}
	}

	fmt.Println("\nHost calibration (optional; deterministic defaults reproduce the paper):")
	cal := cost.Calibrate()
	fmt.Printf("  read_cond=%.1f ht(mem)=%.1f comp(mul)=%.1f comp(div)=%.1f (units of one sequential read)\n",
		cal.ReadCond, cal.HitMem, cal.CompMul, cal.CompDiv)
}
