package swole

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSampleFollowsWrites: the engine evaluates a never-seen filter on a
// strided sample it keeps per table, and a sample is valid only for the
// column objects it was drawn from. After every kind of write the next
// never-seen statement's estimate must equal a row-at-a-time pass over the
// new table's sampled positions — on the classic and the generic compile
// path — the old table's sample must be gone, and samples must never pile
// up across table objects, all while another goroutine compiles never-seen
// statements of its own.
func TestSampleFollowsWrites(t *testing.T) {
	const rows, maxSample = 40_000, 16384 // every other row is sampled
	r := rand.New(rand.NewSource(3))
	ints := func(n int, card int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = r.Int63n(card)
		}
		return v
	}
	table := func(n int) []Column {
		return []Column{IntColumn("c_k", ints(n, 100)), IntColumn("c_w", ints(n, 50)), IntColumn("c_v", ints(n, 1000))}
	}
	d := NewDB()
	defer d.Close()
	if err := d.CreateTable("c", table(rows)...); err != nil {
		t.Fatal(err)
	}

	// share is the row-at-a-time sampler, spelled out: the share of rows 0,
	// step, 2·step, … of the catalog's table that pred accepts.
	share := func(pred func(k, w int64) bool) float64 {
		c := d.db.MustTable("c")
		k, w := c.MustColumn("c_k"), c.MustColumn("c_w")
		n, hits := 0, 0
		for i, step := 0, max(1, c.Rows()/maxSample); i < c.Rows(); i += step {
			n++
			if pred(k.Get(i), w.Get(i)) {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	estimate := func(step, q string) float64 {
		t.Helper()
		_, ex, err := d.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %s: %v", step, q, err)
		}
		if ex.PlanCached || ex.StatsCached {
			t.Fatalf("%s: %s was seen before (plan cached %v, stats cached %v)", step, q, ex.PlanCached, ex.StatsCached)
		}
		return ex.Selectivity
	}
	lit := int64(0)
	check := func(step string) {
		t.Helper()
		lit++
		a, b := lit, 50+lit // the scalar's literal is never the disjunction's
		if got, want := estimate(step, fmt.Sprintf("select sum(c_v) from c where c_k < %d", a)),
			share(func(k, _ int64) bool { return k < a }); got != want {
			t.Errorf("%s: classic path estimates %v, the new table's sample says %v", step, got, want)
		}
		if got, want := estimate(step, fmt.Sprintf("select sum(c_v) as s, count(*) as n from c where c_k < %d or c_w < %d", b, a)),
			share(func(k, w int64) bool { return k < b || w < a }); got != want {
			t.Errorf("%s: generic path estimates %v, the new table's sample says %v", step, got, want)
		}
		if n := d.engine.SampledColumns("c"); n < 2 || n > 3 {
			t.Errorf("%s: %d column samples held for a three-column table whose filters read two", step, n)
		}
	}

	// The other compiler: never-seen statements on both paths, all the time.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1000; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, q := range []string{
				fmt.Sprintf("select sum(c_v) from c where c_w < %d", i),
				fmt.Sprintf("select sum(c_v) as s, count(*) as n from c where c_k > %d or c_v < %d", i, i),
			} {
				if _, _, err := d.QueryContext(context.Background(), q); err != nil {
					t.Errorf("reader: %s: %v", q, err)
					return
				}
			}
		}
	}()

	writes := []struct {
		name string
		do   func() error
	}{
		{"AppendRows", func() error { return d.AppendRows("c", [][]int64{{0, 0, 1}, {99, 49, 2}, {0, 49, 3}}) }},
		{"AppendCSV", func() error {
			_, err := d.AppendCSV("c", []byte("1,1,1\n2,2,2\n0,0,0\n0,0,0\n"), IngestStrict)
			return err
		}},
		{"ReplaceRows", func() error {
			n := d.db.Table("c").Rows()
			return d.ReplaceRows("c", n/4, n/2, table(12_000)...)
		}},
		{"CreateTable", func() error { return d.CreateTable("c", table(50_000)...) }},
	}
	check("initial")
	for _, w := range writes {
		if err := w.do(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(w.name)
	}
	close(stop)
	wg.Wait()

	// Alone now: a write leaves no sample of the table it replaced, and the
	// next filters draw only the columns they read.
	if err := d.AppendRows("c", [][]int64{{5, 5, 5}}); err != nil {
		t.Fatal(err)
	}
	if n := d.engine.SampledColumns("c"); n != 0 {
		t.Errorf("%d column samples of the replaced table still held after the write", n)
	}
	estimate("alone", "select sum(c_v) from c where c_k < 77")
	if n := d.engine.SampledColumns("c"); n != 1 {
		t.Errorf("%d column samples after one filter over one column", n)
	}
	check("alone")
}
