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

// loadMicro loads the micro dataset every statement mode runs on — R =
// cfg.MicroR rows, a tenth as many group keys up to 100K, 1000 dimension
// rows — on cfg.Workers workers, and returns it with its group-key count.
func loadMicro(cfg harness.Config) (*swole.DB, int, error) {
	groups := min(cfg.MicroR/10, 100_000)
	db, err := swole.LoadMicro(swole.MicroConfig{
		Rows: cfg.MicroR, DimRows: 1000, GroupKeys: groups, Seed: 42,
	})
	if err != nil {
		return nil, 0, err
	}
	db.SetWorkers(cfg.Workers)
	return db, groups, nil
}

// runs is one statement's repetitions: the cold run (plan, statistics and
// allocation) and the warm (plan-cached, recycled-resource) ones.
type runs struct {
	cold         time.Duration // canceled or not
	coldCanceled bool
	res          *swole.Result // the cold run's answer; nil if it was canceled
	coldEx       swole.Explain
	warm         time.Duration // the fastest warm run that finished
	warmEx       swole.Explain // the last warm run that finished
	canceled     int           // runs the deadline canceled, the cold one included
}

// repeat runs q reps times, each under the per-run deadline when timeout is
// set. A deadline-exceeded run is not a failure — cooperative cancellation
// returning promptly with pools intact is the behavior under test — so it is
// counted and kept out of the warm minimum.
func repeat(db *swole.DB, q string, reps int, timeout time.Duration) (runs, error) {
	var r runs
	for i := 0; i < reps; i++ {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		start := time.Now()
		res, ex, err := db.QueryContext(ctx, q)
		d := time.Since(start)
		cancel()
		if i == 0 {
			r.cold = d
		}
		if errors.Is(err, context.DeadlineExceeded) {
			r.canceled++
			r.coldCanceled = r.coldCanceled || i == 0
			continue
		}
		if err != nil {
			return r, err
		}
		if i == 0 {
			r.res, r.coldEx = res, ex
			continue
		}
		if r.warm == 0 || d < r.warm {
			r.warm = d
		}
		r.warmEx = ex
	}
	return r, nil
}

// runQuery executes one arbitrary SQL statement against the micro dataset
// (-query): a cold run that plans it through the synthesizer, then warm
// plan-cached repetitions, reporting the synthesized plan signature, the
// chosen technique, and the steady-state counters alongside the timings
// and a preview of the answer. Statements outside the synthesizer's
// grammar run on the interpreter and say so.
func runQuery(cfg harness.Config, q string, reps int, timeout time.Duration) error {
	db, groups, err := loadMicro(cfg)
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Printf("query: %s\ndataset: R=%d rows, %d group keys, workers=%d\n\n", q, cfg.MicroR, groups, cfg.Workers)
	if reps < 2 {
		reps = 5
	}
	r, err := repeat(db, q, reps, timeout)
	if err != nil {
		return err
	}
	if r.res == nil {
		return fmt.Errorf("the cold run was canceled at the %s deadline", timeout)
	}
	ex := r.coldEx
	fmt.Printf("plan:      %s (bucket %s)\n", ex.Shape, swole.ShapeBucket(ex.Shape))
	fmt.Printf("technique: %s\n", ex.Technique)
	if len(ex.Costs) > 0 {
		fmt.Printf("costs:     %v\n", ex.Costs)
	}
	fmt.Printf("cold:      %s\nwarm(min): %s (%.2fx, %s)\n\n",
		r.cold.Round(time.Microsecond), r.warm.Round(time.Microsecond),
		float64(r.cold)/float64(r.warm), counters(r, reps))
	fmt.Printf("result: %d row(s)\n%s", r.res.NumRows(), r.res.StringLimit(20))
	return nil
}

// runSteady executes each supported query shape reps times on one DB and
// reports the cold execution against the warm steady state, with the warm
// run's steady-state and kernel-variant counters.
func runSteady(cfg harness.Config, reps int, timeout time.Duration) error {
	db, groups, err := loadMicro(cfg)
	if err != nil {
		return err
	}
	defer db.Close()
	reps = max(reps, 2)
	fmt.Printf("steady-state demo: R=%d rows, %d group keys, workers=%d, repeat=%d",
		cfg.MicroR, groups, cfg.Workers, reps)
	if timeout > 0 {
		fmt.Printf(", per-query deadline=%s", timeout)
	}
	fmt.Printf("\n\n%-14s %12s %12s %8s  %s\n", "query", "cold", "warm(min)", "speedup", "steady-state counters")
	for _, tc := range steadyQueries {
		r, err := repeat(db, tc.q, reps, timeout)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		if r.canceled == reps {
			fmt.Printf("%-14s %12s %12s %8s  all %d runs canceled at the %s deadline\n",
				tc.name, "-", "-", "-", reps, timeout)
			continue
		}
		coldStr := r.cold.Round(time.Microsecond).String()
		if r.coldCanceled {
			coldStr = "canceled"
		}
		fmt.Printf("%-14s %12s %12s %7.2fx  %s\n", tc.name, coldStr, r.warm.Round(time.Microsecond),
			float64(r.cold)/float64(r.warm), counters(r, reps))
		if v := r.warmEx.Variants; v.Total() > 0 {
			fmt.Printf("%-14s technique=%s variants: %s\n", "", r.warmEx.Technique, v.String())
		}
	}
	return nil
}

// counters renders the warm run's steady-state counters.
func counters(r runs, reps int) string {
	ex := r.warmEx
	s := fmt.Sprintf("plan-cached=%v fresh-allocs=%d ht-grows=%d", ex.PlanCached, ex.FreshAllocs, ex.HTGrows)
	if ex.DenseDomain > 0 {
		s += fmt.Sprintf(" dense=%d", ex.DenseDomain)
	}
	if r.canceled > 0 {
		s += fmt.Sprintf(" canceled=%d/%d", r.canceled, reps)
	}
	return s
}
