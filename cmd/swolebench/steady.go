package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	swole "github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/harness"
)

// steadyQueries are the plan-cacheable shapes the steady-state demo
// exercises, in the paper's operator vocabulary.
var steadyQueries = []struct {
	name string
	q    string
}{
	{"scalar-agg", "select sum(r_a * r_b) from r where r_x < 50"},
	{"group-agg", "select r_c, sum(r_a) from r where r_x < 50 group by r_c"},
	{"semijoin-agg", "select sum(r_a) from r, s where r_fk = s_pk and s_x < 50 and r_x < 50"},
	{"groupjoin-agg", "select r_fk, sum(r_a) from r, s where r_fk = s_pk and s_x < 50 group by r_fk"},
}

// runQuery executes one arbitrary SQL statement against the micro dataset
// (-query): a cold run that plans it through the synthesizer, then warm
// plan-cached repetitions, reporting the synthesized plan signature, the
// chosen technique, and the steady-state counters alongside the timings
// and a preview of the answer. Statements outside the synthesizer's
// grammar run on the interpreter and say so.
func runQuery(cfg harness.Config, q string, reps int, timeout time.Duration) error {
	if reps < 2 {
		reps = 5
	}
	groups := cfg.MicroR / 10
	if groups > 100_000 {
		groups = 100_000
	}
	db, err := swole.LoadMicro(swole.MicroConfig{
		Rows: cfg.MicroR, DimRows: 1000, GroupKeys: groups, Seed: 42,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetWorkers(cfg.Workers)
	fmt.Printf("query: %s\ndataset: R=%d rows, %d group keys, workers=%d\n\n", q, cfg.MicroR, groups, cfg.Workers)

	run := func() (*swole.Result, swole.Explain, time.Duration, error) {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		defer cancel()
		start := time.Now()
		res, ex, err := db.QueryContext(ctx, q)
		return res, ex, time.Since(start), err
	}

	res, ex, cold, err := run()
	if err != nil {
		return err
	}
	fmt.Printf("plan:      %s (bucket %s)\n", ex.Shape, swole.ShapeBucket(ex.Shape))
	fmt.Printf("technique: %s\n", ex.Technique)
	if len(ex.Costs) > 0 {
		fmt.Printf("costs:     %v\n", ex.Costs)
	}
	warmMin := time.Duration(0)
	var lastEx swole.Explain
	for i := 1; i < reps; i++ {
		_, wex, d, err := run()
		if err != nil {
			return err
		}
		if warmMin == 0 || d < warmMin {
			warmMin = d
		}
		lastEx = wex
	}
	fmt.Printf("cold:      %s\nwarm(min): %s (%.2fx, plan-cached=%v fresh-allocs=%d)\n\n",
		cold.Round(time.Microsecond), warmMin.Round(time.Microsecond),
		float64(cold)/float64(warmMin), lastEx.PlanCached, lastEx.FreshAllocs)

	fmt.Printf("result: %d row(s)\n%s", res.NumRows(), res.StringLimit(20))
	return nil
}

// runSteady executes each supported query shape `reps` times on one DB and
// reports the cold (first, plan + statistics + allocation) execution
// against the warm (plan-cached, recycled-resource) steady state. With a
// timeout, every run carries that deadline; deadline-exceeded runs are
// counted separately (they are not failures — cooperative cancellation
// returning promptly with pools intact is the behavior under test) and
// excluded from the warm minimum.
func runSteady(cfg harness.Config, reps int, timeout time.Duration) error {
	if reps < 2 {
		reps = 2
	}
	groups := cfg.MicroR / 10
	if groups > 100_000 {
		groups = 100_000
	}
	fmt.Printf("steady-state demo: R=%d rows, %d group keys, workers=%d, repeat=%d",
		cfg.MicroR, groups, cfg.Workers, reps)
	if timeout > 0 {
		fmt.Printf(", per-query deadline=%s", timeout)
	}
	fmt.Printf("\n\n")
	db, err := swole.LoadMicro(swole.MicroConfig{
		Rows: cfg.MicroR, DimRows: 1000, GroupKeys: groups, Seed: 42,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetWorkers(cfg.Workers)

	// run executes one repetition under the configured deadline, reporting
	// whether the deadline canceled it.
	run := func(q string) (time.Duration, swole.Explain, bool, error) {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		defer cancel()
		start := time.Now()
		_, ex, err := db.QueryContext(ctx, q)
		d := time.Since(start)
		if errors.Is(err, context.DeadlineExceeded) {
			return d, ex, true, nil
		}
		return d, ex, false, err
	}

	fmt.Printf("%-14s %12s %12s %8s  %s\n", "query", "cold", "warm(min)", "speedup", "steady-state counters")
	for _, tc := range steadyQueries {
		cold, _, coldCanceled, err := run(tc.q)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		canceled := 0
		if coldCanceled {
			canceled++
		}

		warmMin := time.Duration(0)
		var lastEx swole.Explain
		for i := 1; i < reps; i++ {
			d, ex, wasCanceled, err := run(tc.q)
			if err != nil {
				return fmt.Errorf("%s: %w", tc.name, err)
			}
			if wasCanceled {
				canceled++
				continue // a truncated run's timing is not a warm sample
			}
			if warmMin == 0 || d < warmMin {
				warmMin = d
			}
			lastEx = ex
		}
		if canceled == reps {
			fmt.Printf("%-14s %12s %12s %8s  all %d runs canceled at the %s deadline\n",
				tc.name, "-", "-", "-", reps, timeout)
			continue
		}
		counters := fmt.Sprintf("plan-cached=%v fresh-allocs=%d ht-grows=%d",
			lastEx.PlanCached, lastEx.FreshAllocs, lastEx.HTGrows)
		if lastEx.DenseDomain > 0 {
			counters += fmt.Sprintf(" dense=%d", lastEx.DenseDomain)
		}
		if lastEx.Partitioned {
			counters += fmt.Sprintf(" partitioned=%d(p1=%s)",
				lastEx.Partitions, lastEx.PartitionTime.Round(time.Microsecond))
		}
		if canceled > 0 {
			counters += fmt.Sprintf(" canceled=%d/%d", canceled, reps)
		}
		coldStr := cold.Round(time.Microsecond).String()
		if coldCanceled {
			coldStr = "canceled"
		}
		fmt.Printf("%-14s %12s %12s %7.2fx  %s\n",
			tc.name, coldStr, warmMin.Round(time.Microsecond),
			float64(cold)/float64(warmMin), counters)
	}
	return nil
}
