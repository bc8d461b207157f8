package swole

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Ingest/read concurrency: the append path's contract is that a reader
// never observes a torn batch — every aggregate reflects the initial data
// plus a *prefix* of the appended batches (an append registers its
// replacement table atomically; stale cached plans answer as of just
// before the swap on the immutable old arrays). Run with -race.

// TestIngestConcurrentReaders hammers one table with 2 ingest writers
// (one through AppendCSV's kernel path, one through AppendRows) and 12
// readers through DB.QueryContext. Every batch adds exactly batchSum to
// sum(a), so a reader's answer must always be initial + j*batchSum for
// some 0 <= j <= batches applied — anything else is a torn read. Afterwards the warm plan must re-cache.
func TestIngestConcurrentReaders(t *testing.T) {
	d := cacheTestDB(t, 1) // table t(a, x, c), 4096 rows
	defer d.Close()
	q := "select sum(a) from t where x < 5"
	initialRes, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	initial := initialRes.Rows()[0][0]

	// Each batch: batchRows rows with x = 0 (all pass the filter)
	// and a summing to batchSum.
	const writers, readers, batches, batchRows = 2, 12, 20, 64
	const batchSum = 64 * 3
	csvBatch := func() []byte {
		var b strings.Builder
		for i := 0; i < batchRows; i++ {
			fmt.Fprintf(&b, "3,0,%d\n", i%5)
		}
		return []byte(b.String())
	}()
	rowBatch := make([][]int64, batchRows)
	for i := range rowBatch {
		rowBatch[i] = []int64{3, 0, int64(i % 5)}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < batches/writers; it++ {
				if w == 0 {
					rep, err := d.AppendCSV("t", csvBatch, IngestStrict)
					if err != nil {
						errs <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
					if rep.Accepted != batchRows {
						errs <- fmt.Errorf("writer %d: accepted %d, want %d", w, rep.Accepted, batchRows)
						return
					}
				} else if err := d.AppendRows("t", rowBatch); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}()
	}
	go func() { // close done when the writers finish
		wg.Wait()
		close(done)
	}()
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		r := r
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, _, err := d.QueryContext(context.Background(), q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				got := res.Rows()[0][0]
				j := got - initial
				if j < 0 || j%batchSum != 0 || j/batchSum > batches {
					errs <- fmt.Errorf("reader %d: sum %d is not initial+j*batchSum (torn read)", r, got)
					return
				}
			}
		}()
	}
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All batches applied: the final answer is exact, and the warm
	// plan re-caches after the last invalidation.
	res, _, err := d.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows()[0][0], initial+int64(batches)*batchSum; got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}
	if _, ex, err := d.QueryContext(context.Background(), q); err != nil || !ex.PlanCached {
		t.Errorf("warm plan did not re-cache after ingest (err %v)", err)
	}
}

// TestAppendRacesCreateTable: an append decodes its rows against one
// registration of the table and must append them to that registration.
// One goroutine keeps recreating t, alternately with an eight-entry and a
// one-entry string dictionary, while another appends "2,h" — code 7 of the
// eight-entry dictionary, absent from the one-entry one. Whatever the
// interleaving, every code of the registered string column stays below its
// dictionary's length.
func TestAppendRacesCreateTable(t *testing.T) {
	d := NewDB()
	defer d.Close()
	dicts := [][]string{{"a", "b", "c", "d", "e", "f", "g", "h"}, {"a"}}
	create := func(i int) error {
		vals := dicts[i%2]
		ids := make([]int64, len(vals))
		return d.CreateTable("t", IntColumn("id", ids), StringColumn("s", vals))
	}
	if err := create(0); err != nil {
		t.Fatal(err)
	}
	checkCodes := func() error {
		c := d.db.Table("t").MustColumn("s")
		for i := 0; i < c.Len(); i++ {
			if code := c.Get(i); code < 0 || code >= int64(c.Dict.Len()) {
				return fmt.Errorf("row %d holds code %d of a %d-entry dictionary", i, code, c.Dict.Len())
			}
		}
		return nil
	}
	const iters = 200
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= iters; i++ {
			if err := create(i); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// The error is not checked: "h" is refused whenever t holds the
			// one-entry dictionary.
			_, _ = d.AppendCSV("t", []byte("2,h\n"), IngestStrict)
			if err := checkCodes(); err != nil {
				errs <- fmt.Errorf("append %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := checkCodes(); err != nil {
		t.Error(err)
	}
}
