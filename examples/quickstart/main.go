// Quickstart: build a small database, run the paper's Section II example
// query on the interpreted engine and on SWOLE, and inspect the decision.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/reprolab/swole"
)

func main() {
	db := swole.NewDB()

	// A toy fact table: x is the predicate column, a the measure.
	n := 1_000_000
	x := make([]int64, n)
	a := make([]int64, n)
	s := uint64(42)
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = int64(s >> 33 % 100)
		s = s*6364136223846793005 + 1442695040888963407
		a[i] = int64(s >> 33 % 1000)
	}
	if err := db.CreateTable("r", swole.IntColumn("x", x), swole.IntColumn("a", a)); err != nil {
		log.Fatal(err)
	}

	// The paper's running example: select sum(a) from R where x < 13.
	const q = "select sum(a) from r where x < 13"

	ref, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("interpreted engine:", ref.Rows()[0][0])

	ctx := context.Background()
	res, explain, err := db.QueryContext(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SWOLE executor:    ", res.Rows()[0][0])
	fmt.Printf("decision: %s (selectivity %.2f)\n", explain.Technique, explain.Selectivity)
	for name, cost := range explain.Costs {
		fmt.Printf("  model %-14s %.0f\n", name, cost)
	}

	// At 90% selectivity the pullup wins instead.
	_, explain, err = db.QueryContext(ctx, "select sum(a) from r where x < 90")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at 90%% selectivity: %s\n", explain.Technique)

	// Race every strategy on the same query (the paper's Figure 1/3
	// experiment on this data).
	runs, err := db.CompareStrategies("select sum(a) from r where x < 50")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstrategy comparison at 50% selectivity:")
	for _, r := range runs {
		fmt.Printf("  %-14s %8s  -> %d\n", r.Strategy, r.Runtime.Round(time.Microsecond), r.Result.Rows()[0][0])
	}
	fmt.Println("fastest:", swole.FastestStrategy(runs).Strategy)

	// Show the code each strategy would generate for the query.
	code, err := db.GenerateCode(q, "value-masking")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngenerated value-masking code:\n%s", code)
}
