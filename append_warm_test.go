package swole

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// flatRows frames a flat row-major answer as one header per row.
func flatRows(flat []int64, width int) [][]int64 {
	var rows [][]int64
	for i := 0; i+width <= len(flat); i += width {
		rows = append(rows, flat[i:i+width])
	}
	return rows
}

// TestAppendKeepsStatementWarm pins what an append leaves of a statement's
// execution state. A 100K-key group-by served through QueryRows goes stale on
// an append, and its cache entry re-prepares in place on the stale plan: the
// merged statistics serve every lookup (the key is too wide to keep its
// distinct-sample), the group tables and the result buffer are adopted, so
// the compile allocates no execution resource and the answer lands in the
// same array — and the stale plan runs no more. An append that widens the key domain changes the table's form: the
// re-prepared plan builds a fresh table, and answers right.
func TestAppendKeepsStatementWarm(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 200_000, DimRows: 1_000, GroupKeys: 100_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	q := "select r_c, sum(r_b) as s from r where r_x < 50 group by r_c"
	serve := func() (Explain, [][]int64, *int64) {
		t.Helper()
		var rows [][]int64
		var at *int64
		ex, err := d.QueryRows(ctx, q, func(_ []string, flat []int64, width int) {
			rows = flatRows(append([]int64(nil), flat...), width)
			at = &flat[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(sortedRows(rows), sortedRows(want.Rows())) {
			t.Fatalf("%d rows differ from the interpreter's %d", len(rows), want.NumRows())
		}
		return ex, rows, at
	}
	serve()
	ex, _, before := serve()
	if !ex.PlanCached || ex.DenseDomain == 0 {
		t.Fatalf("warm run: PlanCached %v DenseDomain %d, want a cached key-addressed plan", ex.PlanCached, ex.DenseDomain)
	}
	domain := ex.DenseDomain
	d.mu.RLock()
	old := d.plans[q].plan
	d.mu.RUnlock()

	r := d.db.Table("r")
	lo, hi := r.Column("r_c").Range()
	fk := r.Column("r_fk").Get(0)
	batch := make([][]int64, 64)
	for i := range batch {
		batch[i] = []int64{1, 2, 3, 1, lo + int64(i)*(hi-lo)/63, fk}
	}
	if err := d.AppendRows("r", batch); err != nil {
		t.Fatal(err)
	}
	ex, _, after := serve()
	switch {
	case ex.PlanCached:
		t.Error("the append did not evict the plan")
	case ex.FreshAllocs != 0:
		t.Errorf("re-prepared plan allocated %d execution resources, want 0 (adopted)", ex.FreshAllocs)
	case !ex.StatsCached:
		t.Error("re-prepared plan re-sampled: the wide group count was not merged")
	case ex.HTGrows != 0:
		t.Errorf("HTGrows = %d, want 0", ex.HTGrows)
	case ex.DenseDomain != domain:
		t.Errorf("DenseDomain = %d, want %d", ex.DenseDomain, domain)
	case after != before:
		t.Error("re-prepared plan did not adopt the result buffer")
	}
	if _, _, err := old.RunContext(ctx); err == nil {
		t.Error("the retired plan still runs after its successor adopted its buffers")
	}

	// A key past the domain: the table's form changes, so it is built anew.
	if err := d.AppendRows("r", [][]int64{{1, 2, 3, 1, hi + 1, fk}}); err != nil {
		t.Fatal(err)
	}
	ex, rows, _ := serve()
	if ex.FreshAllocs == 0 || ex.DenseDomain != domain+1 {
		t.Errorf("widened domain: FreshAllocs %d DenseDomain %d, want a fresh table over %d keys", ex.FreshAllocs, ex.DenseDomain, domain+1)
	}
	if last := rows[len(rows)-1]; last[0] != hi+1 || last[1] != 2 {
		t.Errorf("widened domain: last group %v, want [%d 2]", last, hi+1)
	}
}

// TestAppendRacesAdoptingReaders races appends against readers through both
// hand-out paths while every append makes the statements' plans stale and
// their entries re-prepare in place, the new plan adopting the stale one's
// buffers. QuerySwole readers each own a statement — its result aliases the
// plan, so it is theirs until their next call — and QueryRows readers share
// two, reading the plan's buffer inside the callback. Every batch adds
// batchSum to each statement's total, so an answer must be its initial total
// plus a whole number of batches. Run with -race: a re-prepare that adopted a
// buffer while a callback still read it, or that wrote a statement's buffer
// from outside the statement's own executions, is a data race.
func TestAppendRacesAdoptingReaders(t *testing.T) {
	d := cacheTestDB(t, 1) // t(a, x, c), 4096 rows
	defer d.Close()
	const lenders, sharers, batches, batchRows = 3, 4, 16, 32
	const batchSum = batchRows * 3
	stmt := func(k int) string {
		return fmt.Sprintf("select c, sum(a) as s, count(*) as n from t where x < %d group by c", k+1)
	}
	total := func(rows [][]int64) (s int64) {
		for _, r := range rows {
			s += r[1]
		}
		return s
	}
	initial := map[string]int64{}
	for k := 0; k < lenders+2; k++ {
		res, err := d.Query(stmt(k))
		if err != nil {
			t.Fatal(err)
		}
		initial[stmt(k)] = total(res.Rows())
	}
	check := func(q string, got int64) error {
		if j := got - initial[q]; j < 0 || j%batchSum != 0 || j/batchSum > batches {
			return fmt.Errorf("%s: total %d is not %d plus whole batches", q, got, initial[q])
		}
		return nil
	}
	batch := make([][]int64, batchRows)
	for i := range batch {
		batch[i] = []int64{3, 0, int64(i % 5)}
	}

	// The writer appends a batch once the readers have read about twice each
	// since the last one, so every batch lands among reads, compiles and
	// adoptions.
	errs := make(chan error, 1+lenders+sharers)
	done := make(chan struct{})
	var reads, failed atomic.Int64
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			for reads.Load() < int64(2*(i+1)*(lenders+sharers)) {
				if failed.Load() > 0 {
					return
				}
				runtime.Gosched()
			}
			if err := d.AppendRows("t", batch); err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	reader := func(q string, read func(q string) (int64, error)) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			got, err := read(q)
			if err == nil {
				err = check(q, got)
			}
			if err != nil {
				failed.Add(1)
				errs <- err
				return
			}
			reads.Add(1)
		}
	}
	lend := func(q string) (int64, error) {
		res, _, err := d.QuerySwole(q)
		if err != nil {
			return 0, err
		}
		return total(res.Rows()), nil
	}
	share := func(q string) (got int64, err error) {
		_, err = d.QueryRows(context.Background(), q, func(_ []string, flat []int64, width int) {
			got = total(flatRows(flat, width))
		})
		return got, err
	}
	// Two shared statements, each read by two readers, one of them
	// respelled: both spellings resolve to one entry.
	shared := make([]string, sharers)
	for k := range shared {
		if shared[k] = stmt(lenders + k%2); k >= 2 {
			respelled := strings.Replace(shared[k], " from", "\n  from", 1)
			initial[respelled], shared[k] = initial[shared[k]], respelled
		}
	}
	for k := 0; k < lenders; k++ {
		wg.Add(1)
		go reader(stmt(k), lend)
	}
	for _, q := range shared {
		wg.Add(1)
		go reader(q, share)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for k := 0; k < lenders+2; k++ {
		got, err := share(stmt(k))
		if err != nil {
			t.Fatal(err)
		}
		if want := initial[stmt(k)] + batches*batchSum; got != want {
			t.Errorf("%s: final total %d, want %d", stmt(k), got, want)
		}
	}
}

// TestAppendCompilesOnce pins that an append costs a statement one compile
// however many callers meet its stale entry: after each of 20 appends, 8
// QueryContext callers of one grouped statement, released together, see
// exactly one run that was not replayed (PlanCached false) — the others wait
// on the entry's lock and replay the re-prepared plan — every re-prepare
// adopts its buffers (FreshAllocs 0), and every caller gets the
// interpreter's answer.
func TestAppendCompilesOnce(t *testing.T) {
	d := cacheTestDB(t, 1) // t(a, x, c), 4096 rows
	defer d.Close()
	ctx := context.Background()
	q := "select c, sum(a) as s, count(*) as n from t where x < 5 group by c"
	for i := 0; i < 2; i++ {
		if _, _, err := d.QueryContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	const appends, readers = 20, 8
	batch := [][]int64{{3, 1, 2}, {4, 7, 0}, {5, 2, 4}}
	for i := 0; i < appends; i++ {
		if err := d.AppendRows("t", batch); err != nil {
			t.Fatal(err)
		}
		want, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		res := make([]*Result, readers)
		exs := make([]Explain, readers)
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for k := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				res[k], exs[k], errs[k] = d.QueryContext(ctx, q)
			}()
		}
		close(start)
		wg.Wait()
		compiles, fresh := 0, 0
		for k, ex := range exs {
			if errs[k] != nil {
				t.Fatal(errs[k])
			}
			if !rowsEqual(sortedRows(res[k].Rows()), sortedRows(want.Rows())) {
				t.Fatalf("append %d, reader %d: %v, want %v", i, k, res[k].Rows(), want.Rows())
			}
			if !ex.PlanCached {
				compiles++
			}
			fresh += ex.FreshAllocs
		}
		if compiles != 1 || fresh != 0 {
			t.Errorf("append %d: %d compiles and %d fresh allocations, want 1 and 0", i, compiles, fresh)
		}
	}
}
