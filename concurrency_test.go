package swole

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/swole/internal/exec"
)

// Concurrency and cancellation semantics of the public DB — the contract
// the serving subsystem (internal/serve) is built on. Run with -race: the
// point of TestConcurrentQueries is that 16 goroutines hammering one DB
// with a mix of cached shapes produce no data races and no wrong answers.

// concurrencyQueries mixes the registry's shapes over the cache test
// table: scalar and group-by aggregation, repeated verbatim (fast raw-key
// hits) and reformatted (normalized-key hits).
var concurrencyQueries = []string{
	"select sum(a) from t where x < 5",
	"select  sum(a)\nfrom t   where x < 5", // same plan, normalized spelling
	"select sum(a) from t where x < 8",
	"select c, sum(a) from t where x < 5 group by c",
	"select c, sum(a) from t where x < 9 group by c",
}

// TestConcurrentQueries fires the query mix from 16 goroutines through
// both entry points. QueryContext goroutines verify their (private,
// copied) rows against interpreter answers computed up front; QuerySwole
// goroutines verify error and Explain only — their *Result aliases
// cache-owned buffers that concurrent re-executions overwrite, which is
// exactly why QueryContext exists.
func TestConcurrentQueries(t *testing.T) {
	d := cacheTestDB(t, 1)
	defer d.Close()

	type expectation struct {
		scalar int64
		groups map[int64]int64
		isAgg  bool
	}
	want := make([]expectation, len(concurrencyQueries))
	for i, q := range concurrencyQueries {
		res, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows()[0]) == 1 {
			want[i] = expectation{scalar: res.Rows()[0][0], isAgg: true}
		} else {
			want[i] = expectation{groups: rowsAsMap(t, res)}
		}
	}

	const goroutines = 16
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (g + it) % len(concurrencyQueries)
				q := concurrencyQueries[qi]
				if g%2 == 0 {
					// Copying entry point: results are private, check values.
					res, ex, err := d.QueryContext(context.Background(), q)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: QueryContext(%q): %w", g, q, err)
						return
					}
					if ex.Technique == "interpreter-fallback" {
						errs <- fmt.Errorf("goroutine %d: %q fell back to the interpreter", g, q)
						return
					}
					if want[qi].isAgg {
						if got := res.Rows()[0][0]; got != want[qi].scalar {
							errs <- fmt.Errorf("goroutine %d: %q = %d, want %d", g, q, got, want[qi].scalar)
							return
						}
					} else {
						got := map[int64]int64{}
						for _, row := range res.Rows() {
							got[row[0]] = row[1]
						}
						for k, w := range want[qi].groups {
							if got[k] != w {
								errs <- fmt.Errorf("goroutine %d: %q group %d = %d, want %d", g, q, k, got[k], w)
								return
							}
						}
					}
				} else {
					// Aliasing entry point: concurrent callers may not read
					// the rows (the cache entry overwrites them), but the
					// call itself must be race-free and classify correctly.
					_, ex, err := d.QuerySwole(q)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: QuerySwole(%q): %w", g, q, err)
						return
					}
					if ex.Technique == "interpreter-fallback" {
						errs <- fmt.Errorf("goroutine %d: %q fell back to the interpreter", g, q)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCancellationSemantics exercises the cooperative-cancellation
// contract end to end on a table large enough that a small deadline
// expires mid-scan: the run returns context.DeadlineExceeded within
// ~100ms of the deadline (morsel-granularity polling), and the
// immediately following identical query is correct with zero fresh
// allocations — a canceled run returns its pooled state intact.
func TestCancellationSemantics(t *testing.T) {
	rows := 8_000_000
	if testing.Short() {
		rows = 2_000_000
	}
	d, err := LoadMicro(MicroConfig{Rows: rows, GroupKeys: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := "select r_c, sum(r_b) from r where r_a < 90 group by r_c"

	// Cold + warm executions: prepare the plan, record the right answer,
	// and measure the warm runtime the deadline must undercut.
	res, ex, err := d.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Technique == "interpreter-fallback" {
		t.Fatalf("query not SWOLE-shaped: %+v", ex)
	}
	want := map[int64]int64{}
	for _, row := range res.Rows() {
		want[row[0]] = row[1]
	}
	warmStart := time.Now()
	if _, _, err = d.QueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	warm := time.Since(warmStart)

	// Deadline at a fraction of the warm runtime, halving on the rare
	// machine fast enough to finish anyway.
	deadline := warm / 4
	if deadline > 2*time.Millisecond {
		deadline = 2 * time.Millisecond
	}
	var canceled bool
	for attempt := 0; attempt < 6 && !canceled; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, _, err := d.QueryContext(ctx, q)
		elapsed := time.Since(start)
		cancel()
		switch {
		case err == nil:
			deadline /= 2 // finished under the deadline; tighten and retry
			if deadline <= 0 {
				deadline = time.Microsecond
			}
		case errors.Is(err, context.DeadlineExceeded):
			canceled = true
			if over := elapsed - deadline; over > 100*time.Millisecond {
				t.Errorf("canceled run returned %v past its %v deadline, want within 100ms", over, deadline)
			}
		default:
			t.Fatalf("canceled run returned %v, want context.DeadlineExceeded", err)
		}
	}
	if !canceled {
		t.Fatalf("could not provoke a deadline: warm runtime %v too fast for every deadline tried", warm)
	}

	// The very next execution must be correct and fully recycled.
	res2, ex2, err := d.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.FreshAllocs != 0 {
		t.Errorf("run after cancellation reports %d fresh allocations, want 0 (pools must survive a cancel)", ex2.FreshAllocs)
	}
	if !ex2.PlanCached {
		t.Error("run after cancellation missed the plan cache")
	}
	got := map[int64]int64{}
	for _, row := range res2.Rows() {
		got[row[0]] = row[1]
	}
	if len(got) != len(want) {
		t.Fatalf("post-cancel group count %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("post-cancel group %d = %d, want %d", k, got[k], w)
		}
	}
}

// TestFallbackHonorsDeadline: a statement the synthesizer declines (no
// aggregate, ORDER BY) runs on the interpreter, whose scan polls the context
// every few thousand rows. Under a deadline at a tenth of its runtime it
// returns context.DeadlineExceeded within a few morsels' worth of its scan,
// not after the whole scan.
func TestFallbackHonorsDeadline(t *testing.T) {
	const rows = 1_000_000
	d, err := LoadMicro(MicroConfig{Rows: rows, GroupKeys: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := "select r_a, r_c from r where r_x < 2 order by r_c"
	full := time.Duration(math.MaxInt64)
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, ex, err := d.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Technique != "interpreter-fallback" {
			t.Fatalf("statement ran on %s, want the interpreter", ex.Technique)
		}
		full = min(full, time.Since(start))
	}
	// A few morsels: four morsels' share of the uncanceled run. The best of
	// three attempts counts, so one scheduler hiccup does not fail the test.
	deadline, slack := full/10, full*4*exec.DefaultMorselRows/rows
	over := time.Duration(math.MaxInt64)
	for i := 0; i < 3 && over > slack; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, _, err = d.QueryContext(ctx, q)
		over = min(over, time.Since(start)-deadline)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	}
	if over > slack {
		t.Errorf("returned %v past its %v deadline (uncanceled run %v), want within %v", over, deadline, full, slack)
	}
}

// TestReconfigureUnderLoad pins SetWorkers against concurrent compiles:
// eight goroutines run the four classic statements while a ninth flips the
// worker count, ending on two workers. Run with -race — the configuration is written under the lock
// compiles hold — and no statement compiled in a flip's window may stay
// cached with the old configuration: afterwards every cached plan runs on
// two workers.
func TestReconfigureUnderLoad(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 20_000, DimRows: 256, GroupKeys: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	queries := []string{
		"select sum(r_a * r_b) from r where r_x < 50",
		"select r_c, sum(r_a) from r where r_x < 50 group by r_c",
		"select sum(r_a) from r, s where r_fk = s_pk and s_x < 50 and r_x < 50",
		"select r_fk, sum(r_a) from r, s where r_fk = s_pk and s_x < 50 group by r_fk",
	}
	want := make([][][]int64, len(queries))
	for i, q := range queries {
		res, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortedRows(res.Rows())
	}

	ctx := context.Background()
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (g + it) % len(queries)
				res, _, err := d.QueryContext(ctx, queries[qi])
				if err == nil && !rowsEqual(sortedRows(res.Rows()), want[qi]) {
					err = fmt.Errorf("wrong answer")
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %q: %w", g, queries[qi], err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 40; i++ {
		d.SetWorkers(1 + i%2)
		time.Sleep(time.Millisecond)
	}
	d.SetWorkers(2)
	time.Sleep(5 * time.Millisecond) // let in-flight compiles land (or be dropped)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, q := range queries {
		if _, _, err := d.QueryContext(ctx, q); err != nil {
			t.Fatal(err)
		}
		if got := planWorkers(t, d, q); got != 2 {
			t.Errorf("%q: cached plan runs on %d workers after SetWorkers(2)", q, got)
		}
	}
}

// planWorkers reports how many morsel workers q's cached plan runs on.
func planWorkers(t *testing.T, d *DB, q string) int {
	t.Helper()
	d.mu.RLock()
	c := d.plans[q]
	d.mu.RUnlock()
	if c == nil {
		t.Fatalf("%q is not plan-cached", q)
	}
	c.mu.Lock()
	_, ex, err := c.plan.RunContext(context.Background())
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return ex.Workers
}
