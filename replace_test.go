package swole

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/reprolab/swole/internal/storage"
)

// checkFKIndexes verifies every registered foreign-key index against the
// tables of the same catalog: one position per child row, and each
// position addresses the parent row holding the child's key.
func checkFKIndexes(t *testing.T, d *DB) {
	t.Helper()
	cat := d.db.Catalog()
	for _, idx := range cat.FKIndexes() {
		fk := cat.Table(idx.Child).MustColumn(idx.FK)
		pk := cat.Table(idx.Parent).MustColumn(idx.PK)
		if len(idx.Pos) != fk.Len() {
			t.Fatalf("index %s.%s covers %d rows, the child has %d", idx.Child, idx.FK, len(idx.Pos), fk.Len())
		}
		for i, p := range idx.Pos {
			if pk.Get(int(p)) != fk.Get(i) {
				t.Fatalf("index %s.%s: row %d (key %d) addresses %s row %d (key %d)",
					idx.Child, idx.FK, i, fk.Get(i), idx.Parent, p, pk.Get(int(p)))
			}
		}
	}
}

// tableRows returns rows [lo, hi) of the named table as replacement
// columns, each column's values rotated by rot within the range.
func tableRows(d *DB, name string, lo, hi, rot int) []Column {
	tab := d.db.Table(name)
	cols := make([]Column, len(tab.Columns))
	for ci, c := range tab.Columns {
		vals := make([]int64, hi-lo)
		for j := range vals {
			vals[j] = c.Get(lo + (j+rot)%len(vals))
		}
		cols[ci] = IntColumn(c.Name, vals)
	}
	return cols
}

// TestReplaceRowsRaceCrossRangeReads is the row-range write path's -race
// test: 4 writer goroutines each continuously replace their own quarter of
// a table while 12 readers run scalar and grouped queries over all of it
// through both entry points. Writers install row-rotations of their
// range's data, so every aggregate is invariant — readers must see exactly
// the reference answer at every instant, while plans are being evicted and
// re-prepared underneath them.
func TestReplaceRowsRaceCrossRangeReads(t *testing.T) {
	d := cacheTestDB(t, 1) // table t(a, x, c), 4096 rows
	defer d.Close()

	scalarQ := "select sum(a) from t where x < 5"
	groupQ := "select c, sum(a) from t where x < 5 group by c"
	wantScalarRes, err := d.Query(scalarQ)
	if err != nil {
		t.Fatal(err)
	}
	wantScalar := wantScalarRes.Rows()[0][0]
	wantGroupRes, err := d.Query(groupQ)
	if err != nil {
		t.Fatal(err)
	}
	wantGroups := rowsAsMap(t, wantGroupRes)

	const writers, readers, iters = 4, 12, 25
	const per = 4096 / writers
	base := make([][]Column, writers) // each writer's range, unrotated
	for s := range base {
		base[s] = tableRows(d, "t", s*per, (s+1)*per, 0)
	}
	rotate := func(cols []Column, r int) []Column {
		out := make([]Column, len(cols))
		for i, c := range cols {
			vals := make([]int64, per)
			for j := range vals {
				vals[j] = c.col.Get((j + r) % per)
			}
			out[i] = IntColumn(c.col.Name, vals)
		}
		return out
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for s := 0; s < writers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for it := 1; it <= iters; it++ {
				if err := d.ReplaceRows("t", s*per, (s+1)*per, rotate(base[s], (it*37)%per)...); err != nil {
					errs <- fmt.Errorf("writer %d: %w", s, err)
					return
				}
			}
		}(s)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if g%2 == 0 {
					res, _, err := d.QueryContext(context.Background(), scalarQ)
					if err != nil {
						errs <- fmt.Errorf("reader %d: %w", g, err)
						return
					}
					if got := res.Rows()[0][0]; got != wantScalar {
						errs <- fmt.Errorf("reader %d: scalar %d, want %d (rotation must not change the sum)", g, got, wantScalar)
						return
					}
				} else if g%4 == 1 {
					res, _, err := d.QueryContext(context.Background(), groupQ)
					if err != nil {
						errs <- fmt.Errorf("reader %d: %w", g, err)
						return
					}
					got := map[int64]int64{}
					for _, row := range res.Rows() {
						got[row[0]] = row[1]
					}
					for key, w := range wantGroups {
						if got[key] != w {
							errs <- fmt.Errorf("reader %d: group %d = %d, want %d", g, key, got[key], w)
							return
						}
					}
				} else {
					// Aliasing entry point: race-free execution is the contract;
					// rows may not be read concurrently.
					if _, _, err := d.QuerySwole(scalarQ); err != nil {
						errs <- fmt.Errorf("reader %d: QuerySwole: %w", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The dust settled: one more cold-to-warm pair must still be exact.
	res, _, err := d.QueryContext(context.Background(), scalarQ)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows()[0][0]; got != wantScalar {
		t.Errorf("post-race scalar %d, want %d", got, wantScalar)
	}
}

// replacement builds n rows of micro-schema replacement columns for table
// r; every row's foreign key is one of fk, fk+1, fk+2.
func replacement(n int, fk int64) []Column {
	col := func(name string, v int64) Column {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = v + int64(i%3)
		}
		return IntColumn(name, vals)
	}
	return []Column{col("r_a", 1), col("r_b", 2), col("r_x", 3), col("r_y", 0), col("r_c", 4), col("r_fk", fk)}
}

// microQueries read the micro dataset's fact table alone and joined to its
// foreign-key parent.
var microQueries = []string{
	"select sum(r_a * r_b) from r where r_x < 50",
	"select r_c, sum(r_a) from r where r_x < 50 group by r_c",
	"select s_x, sum(r_b) as q, count(*) as n from r, s where r_fk = s_pk and s_x < 50 group by s_x",
	"select sum(r_a) from r, s where r_fk = s_pk and s_x < 50",
}

// TestReplaceRowsRanges replaces the row ranges a fixed layout could not
// name — a pure insert, a delete, the tail, the whole table — on a
// foreign-key child, then rotates its parent's rows. After each write the
// foreign-key indexes address the new rows, and every statement answers
// as the interpreter does, cold and warm.
func TestReplaceRowsRanges(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 5000, DimRows: 100, GroupKeys: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rows := func(name string) int { return d.db.Table(name).Rows() }
	steps := []struct {
		name     string
		table    string
		lo, hi   func() int
		cols     func() []Column
		wantRows func(before int) int
	}{
		{"insert (lo == hi)", "r", func() int { return 1234 }, func() int { return 1234 },
			func() []Column { return replacement(40, 7) }, func(n int) int { return n + 40 }},
		{"delete (empty replacement)", "r", func() int { return 100 }, func() int { return 700 },
			func() []Column { return replacement(0, 7) }, func(n int) int { return n - 600 }},
		{"tail (hi == Rows())", "r", func() int { return rows("r") - 300 }, func() int { return rows("r") },
			func() []Column { return replacement(25, 20) }, func(n int) int { return n - 275 }},
		{"whole table", "r", func() int { return 0 }, func() int { return rows("r") },
			func() []Column { return replacement(900, 40) }, func(int) int { return 900 }},
		{"foreign-key parent", "s", func() int { return 0 }, func() int { return rows("s") },
			func() []Column { return tableRows(d, "s", 0, rows("s"), 37) }, func(n int) int { return n }},
		{"foreign-key parent, inner range", "s", func() int { return 10 }, func() int { return 60 },
			func() []Column { return tableRows(d, "s", 10, 60, 11) }, func(n int) int { return n }},
	}
	for _, q := range microQueries {
		if _, _, err := d.QuerySwole(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range steps {
		before, old := rows(st.table), d.db.Table(st.table)
		if err := d.ReplaceRows(st.table, st.lo(), st.hi(), st.cols()...); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got, want := rows(st.table), st.wantRows(before); got != want {
			t.Fatalf("%s: %d rows, want %d", st.name, got, want)
		}
		if d.db.Table(st.table) == old {
			t.Fatalf("%s registered no new table object", st.name)
		}
		checkFKIndexes(t, d)
		for _, q := range microQueries {
			swole := func() (*Result, Explain, error) { return d.QuerySwole(q) }
			checkParity(t, d, q, false, st.name+" cold", swole)
			checkParity(t, d, q, true, st.name+" warm", swole)
		}
	}
}

// TestReplaceRowsFailureChangesNothing pins ReplaceRows' atomicity: nothing
// is registered until the replacement table and every foreign-key index
// naming it are built, so a refused replacement — whatever row range it
// names — leaves the registered tables, the plan cache and every answer
// exactly as they were.
func TestReplaceRowsFailureChangesNothing(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 20_000, DimRows: 100, GroupKeys: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.CreateTable("g", IntColumn("g_v", []int64{1, 2, 3, 4}), StringColumn("g_s", []string{"a", "b", "a", "b"})); err != nil {
		t.Fatal(err)
	}
	type state struct {
		tables  [3]*storage.Table
		indexes []*storage.FKIndex
		plans   int
		answers [4][][]int64
	}
	snapshot := func(label string) state {
		var st state
		for i, tn := range []string{"r", "s", "g"} {
			st.tables[i] = d.db.Table(tn)
		}
		st.indexes = d.db.Catalog().FKIndexes()
		for i, q := range microQueries {
			res, ex, err := d.QuerySwole(q)
			if err != nil {
				t.Fatal(err)
			}
			if label != "" && !ex.PlanCached {
				t.Errorf("%s: evicted the plan of %q", label, q)
			}
			st.answers[i] = sortedRows(res.Rows())
		}
		st.plans = d.PlanCacheLen()
		return st
	}
	before := snapshot("")

	rnd := rand.New(rand.NewSource(3))
	nr, ns := d.db.Table("r").Rows(), d.db.Table("s").Rows()
	pk := d.db.Table("s").MustColumn("s_pk")
	parent := func(keys ...int64) []Column {
		cols := tableRows(d, "s", 0, len(keys), 0)
		cols[0] = IntColumn("s_pk", keys)
		return cols
	}
	with := func(i int, c Column) []Column {
		cols := replacement(10, 5)
		cols[i] = c
		return cols
	}
	cases := []struct {
		name, table string
		cols        []Column
		wantErr     string
		lo, hi      int // used when the case names its range; else random
	}{
		{name: "fk value missing from the parent", table: "r", cols: replacement(10, 99_999), wantErr: "referential integrity"},
		{name: "too few columns", table: "r", cols: replacement(10, 5)[:5], wantErr: "columns"},
		{name: "too many columns", table: "r", cols: append(replacement(10, 5), IntColumn("extra", make([]int64, 10))), wantErr: "columns"},
		{name: "wrong column name", table: "r", cols: with(2, IntColumn("r_z", make([]int64, 10))), wantErr: "r_z"},
		{name: "wrong value kind", table: "r", cols: with(0, DecimalColumn("r_a", make([]int64, 10))), wantErr: "value kind"},
		{name: "ragged columns", table: "r", cols: with(3, IntColumn("r_y", make([]int64, 7)))},
		{name: "unparsable date column", table: "r", cols: with(0, DateColumn("r_a", []string{"not a date"}))},
		{name: "uninitialized column", table: "r", cols: with(4, Column{}), wantErr: "uninitialized"},
		{name: "string column", table: "g", cols: []Column{IntColumn("g_v", []int64{9}), StringColumn("g_s", []string{"a"})}, wantErr: "string column"},
		{name: "parent key still referenced", table: "s", cols: parent(99_999), wantErr: "referential integrity", lo: 0, hi: ns},
		{name: "duplicate parent key", table: "s", cols: parent(pk.Get(1)), wantErr: "duplicate primary key", lo: 0, hi: 1},
		{name: "hi past the table", table: "r", cols: replacement(10, 5), wantErr: "out of range", lo: nr - 1, hi: nr + 1},
		{name: "negative lo", table: "r", cols: replacement(10, 5), wantErr: "out of range", lo: -1, hi: 3},
		{name: "lo > hi", table: "r", cols: replacement(10, 5), wantErr: "out of range", lo: 9, hi: 8},
		{name: "unknown table", table: "nope", cols: replacement(10, 5), wantErr: "no table"},
	}
	for _, c := range cases {
		lo, hi := c.lo, c.hi
		if lo == 0 && hi == 0 && c.table != "nope" {
			rows := d.db.Table(c.table).Rows()
			lo = rnd.Intn(rows + 1)
			hi = lo + rnd.Intn(rows-lo+1)
		}
		err := d.ReplaceRows(c.table, lo, hi, c.cols...)
		if err == nil {
			t.Fatalf("%s: replacement of [%d, %d) accepted", c.name, lo, hi)
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q, want it to mention %q", c.name, err, c.wantErr)
		}
		if after := snapshot(c.name); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Errorf("%s changed observable state:\nbefore %v\nafter  %v", c.name, before, after)
		}
	}

	// Control: a valid replacement of a random range goes through and moves
	// everything the failed ones must not.
	lo := rnd.Intn(nr)
	hi := lo + 1 + rnd.Intn(nr-lo)
	if err := d.ReplaceRows("r", lo, hi, replacement(10, 5)...); err != nil {
		t.Fatal(err)
	}
	after := snapshot("")
	if after.tables[0] == before.tables[0] || fmt.Sprint(after.answers) == fmt.Sprint(before.answers) {
		t.Errorf("a successful replacement changed nothing (test is vacuous): %v", after)
	}
	if after.tables[1] != before.tables[1] || after.tables[2] != before.tables[2] {
		t.Errorf("replacing rows of r re-registered another table: %v, were %v", after.tables, before.tables)
	}
	checkFKIndexes(t, d)
	for _, q := range microQueries {
		checkParity(t, d, q, false, "after replacement", func() (*Result, Explain, error) { return d.QuerySwole(q) })
	}
}

// TestShardStatefulParity is the stateful differential test: a random
// interleaving of appends through every ingest door, replacements of random
// row ranges of the fuzz schema's fact table (a foreign-key child) and of a
// dimension (a parent and a child), and worker-count changes, with a random
// statement checked against the interpreter — cold, then warm — after every
// step, together with the statement of the step before (evicted by writes)
// and the foreign-key indexes checked against their tables.
func TestShardStatefulParity(t *testing.T) {
	seeds, steps := []int64{1, 2, 3}, 60
	if testing.Short() {
		seeds, steps = seeds[:2], 20
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const rows = 2000
			d := fuzzDB(t, rows)
			defer d.Close()
			r := rand.New(rand.NewSource(seed))
			g := &fuzzGen{r: r}
			// A fact row references a random parent of each dimension by key.
			pk1, pk2 := d.db.MustTable("d1").MustColumn("d1_pk"), d.db.MustTable("d2").MustColumn("d2_pk")
			factRow := func() []int64 {
				return []int64{r.Int63n(10), r.Int63n(21), r.Int63n(51), pk1.Get(r.Intn(pk1.Len())), pk2.Get(r.Intn(pk2.Len()))}
			}
			factCSV := func(n int, bad string) []byte {
				var b strings.Builder
				for i := 0; i < n; i++ {
					if i == n/2 {
						b.WriteString(bad)
					}
					row := factRow()
					fmt.Fprintf(&b, "%d,%d,%d,%d,%d\n", row[0], row[1], row[2], row[3], row[4])
				}
				return []byte(b.String())
			}
			randRange := func(n int) (lo, hi int) {
				lo = r.Intn(n + 1)
				return lo, lo + r.Intn(n-lo+1)
			}
			prev := "select count(*) as n from f"
			for step := 0; step < steps; step++ {
				before := d.db.Table("f").Rows()
				var op string
				switch r.Intn(7) {
				case 0:
					// Rotate a range of d1's rows: f's index into d1 and d1's
					// index into d3 both move.
					lo, hi := randRange(d.db.Table("d1").Rows())
					op = fmt.Sprintf("ReplaceRows(d1, [%d, %d) rotated)", lo, hi)
					if err := d.ReplaceRows("d1", lo, hi, tableRows(d, "d1", lo, hi, 1+r.Intn(7))...); err != nil {
						t.Fatalf("step %d %s: %v", step, op, err)
					}
				case 1:
					batch := make([][]int64, 1+r.Intn(300))
					for i := range batch {
						batch[i] = factRow()
					}
					op = fmt.Sprintf("AppendRows(%d)", len(batch))
					if err := d.AppendRows("f", batch); err != nil {
						t.Fatalf("step %d %s: %v", step, op, err)
					}
					if got := d.db.Table("f").Rows(); got != before+len(batch) {
						t.Fatalf("step %d %s: %d rows, want %d", step, op, got, before+len(batch))
					}
				case 2:
					n := 1 + r.Intn(200)
					op = fmt.Sprintf("AppendCSV strict(%d)", n)
					if rep, err := d.AppendCSV("f", factCSV(n, ""), IngestStrict); err != nil || rep.Accepted != n {
						t.Fatalf("step %d %s: %+v, %v", step, op, rep, err)
					}
				case 3:
					n := 2 + r.Intn(200)
					op = fmt.Sprintf("AppendCSV strict(%d) with a malformed row", n)
					if _, err := d.AppendCSV("f", factCSV(n, "x,1,2,3,4\n"), IngestStrict); err == nil {
						t.Fatalf("step %d %s: accepted", step, op)
					}
					if got := d.db.Table("f").Rows(); got != before {
						t.Fatalf("step %d %s: refused batch left %d rows, want %d", step, op, got, before)
					}
				case 4:
					n := 2 + r.Intn(200)
					op = fmt.Sprintf("AppendCSV skip(%d)", n)
					if rep, err := d.AppendCSV("f", factCSV(n, "x,1,2,3,4\n"), IngestSkip); err != nil || rep.Accepted != n || rep.Rejected != 1 {
						t.Fatalf("step %d %s: %+v, %v", step, op, rep, err)
					}
				case 5:
					lo, hi := randRange(before)
					n := []int{0, 1, 1 + r.Intn(hi-lo+1), hi - lo, 2*(hi-lo) + 1}[r.Intn(5)]
					batch := make([][]int64, 5)
					for c := range batch {
						batch[c] = make([]int64, n)
					}
					for i := 0; i < n; i++ {
						for c, v := range factRow() {
							batch[c][i] = v
						}
					}
					op = fmt.Sprintf("ReplaceRows(f, [%d, %d) of %d, %d rows)", lo, hi, before, n)
					if err := d.ReplaceRows("f", lo, hi, IntColumn("f_k", batch[0]), IntColumn("f_a", batch[1]),
						IntColumn("f_b", batch[2]), IntColumn("f_d1", batch[3]), IntColumn("f_d2", batch[4])); err != nil {
						t.Fatalf("step %d %s: %v", step, op, err)
					}
					if got, want := d.db.Table("f").Rows(), before-(hi-lo)+n; got != want {
						t.Fatalf("step %d %s: %d rows, want %d", step, op, got, want)
					}
				default:
					w := []int{1, 2, 4}[r.Intn(3)]
					op = fmt.Sprintf("SetWorkers(%d)", w)
					d.SetWorkers(w)
				}
				checkFKIndexes(t, d)
				q := g.query()
				tag := fmt.Sprintf("step %d after %s: ", step, op)
				swole := func(q string) func() (*Result, Explain, error) {
					return func() (*Result, Explain, error) { return d.QuerySwole(q) }
				}
				checkParity(t, d, prev, false, tag+"previous statement", swole(prev))
				checkParity(t, d, q, false, tag+"cold", swole(q))
				checkParity(t, d, q, true, tag+"warm", swole(q))
				prev = q
			}
		})
	}
}

// TestReplaceRowsRaceJoinReaders is the foreign-key variant of the race
// test above: writers rotate the rows of their own range of the micro fact
// table — a foreign-key child, so every replacement also rebuilds its
// index — and one more rotates the parent's rows, which moves the positions
// the child's index addresses, while readers compile and run a generic join
// statement whose plan binds both tables and the index. A plan must never
// pair one registration's table with another's index: answers stay exact
// throughout.
func TestReplaceRowsRaceJoinReaders(t *testing.T) {
	const k, rows = 4, 8192
	d, err := LoadMicro(MicroConfig{Rows: rows, DimRows: 64, GroupKeys: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := "select s_x, sum(r_b) as q, count(*) as n from r, s where r_fk = s_pk and r_x < 60 group by s_x"
	ref, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(ref.Rows())

	// Writer s < k replaces rows [s·per, (s+1)·per) of r with rotations of
	// its original rows; writer k rotates all of s. Writes are serialized,
	// so each reads the registration the last one left.
	const per = rows / k
	const readers, iters = 8, 20
	parentRows := d.db.Table("s").Rows()
	var wg sync.WaitGroup
	errs := make(chan error, k+1+readers)
	for s := 0; s <= k; s++ {
		table, lo, hi := "r", s*per, (s+1)*per
		if s == k {
			table, lo, hi = "s", 0, parentRows
		}
		base := tableRows(d, table, lo, hi, 0)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for it := 1; it <= iters; it++ {
				cols := make([]Column, len(base))
				for ci, c := range base {
					vals := make([]int64, hi-lo)
					for j := range vals {
						vals[j] = c.col.Get((j + it*37) % len(vals))
					}
					cols[ci] = IntColumn(c.col.Name, vals)
				}
				if err := d.ReplaceRows(table, lo, hi, cols...); err != nil {
					errs <- fmt.Errorf("writer %d: %w", s, err)
					return
				}
			}
		}(s)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				res, _, err := d.QueryContext(context.Background(), q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				if got := sortedRows(res.Rows()); !rowsEqual(got, want) {
					errs <- fmt.Errorf("reader %d, run %d: wrong groups (rotating rows must not change them)", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkFKIndexes(t, d)
	checkParity(t, d, q, false, "after the race", func() (*Result, Explain, error) { return d.QuerySwole(q) })
}

// recreateTestDB builds the recreate probe's schema: parent s(s_pk, s_x)
// with keys 10, 20, 30, 40 and child r(r_fk, r_a) with four rows
// referencing key 10 and five referencing key 40.
func recreateTestDB(t *testing.T) *DB {
	t.Helper()
	d := NewDB()
	for _, err := range []error{
		d.CreateTable("s", IntColumn("s_pk", []int64{10, 20, 30, 40}), IntColumn("s_x", []int64{9, 0, 0, 0})),
		d.CreateTable("r", IntColumn("r_fk", []int64{10, 10, 10, 10, 40, 40, 40, 40, 40}), IntColumn("r_a", []int64{1, 1, 1, 1, 1, 1, 1, 1, 1})),
		d.AddForeignKey("r", "r_fk", "s", "s_pk"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

const recreateQuery = "select sum(r_a) as n from r, s where r_fk = s_pk and s_x = 9"

// TestCreateTableRebuildsParentIndexes: recreating a foreign-key parent
// with its keys reordered moves the rows its children's index addresses by
// position. The index is rebuilt with the table, so the positional-bitmap
// plan compiled afterwards probes the new rows and answers as the
// interpreter does.
func TestCreateTableRebuildsParentIndexes(t *testing.T) {
	d := recreateTestDB(t)
	defer d.Close()
	swole := func() (*Result, Explain, error) { return d.QuerySwole(recreateQuery) }
	checkParity(t, d, recreateQuery, false, "before the recreate", swole)
	if err := d.CreateTable("s", IntColumn("s_pk", []int64{40, 30, 20, 10}), IntColumn("s_x", []int64{9, 0, 0, 0})); err != nil {
		t.Fatal(err)
	}
	res, ex, err := d.QuerySwole(recreateQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Technique != "positional-bitmap" {
		t.Errorf("technique %s, want positional-bitmap (the plan that reads the index)", ex.Technique)
	}
	if got := res.Rows()[0][0]; got != 5 {
		t.Errorf("engine answers %d, want 5 (the rows referencing key 40)", got)
	}
	checkParity(t, d, recreateQuery, true, "after the recreate", swole)
	checkFKIndexes(t, d)
}

// TestCreateTableRefusesBrokenForeignKey: a recreate under which a
// registered foreign key no longer holds — a referenced key gone, a
// duplicate primary key, the key column gone, a child key without a
// parent — fails like the append path does and changes nothing: the old
// tables keep answering from the plan cache.
func TestCreateTableRefusesBrokenForeignKey(t *testing.T) {
	d := recreateTestDB(t)
	defer d.Close()
	res, _, err := d.QuerySwole(recreateQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Rows()[0][0]
	oldR, oldS := d.db.Table("r"), d.db.Table("s")
	cases := []struct {
		name, table string
		cols        []Column
		wantErr     string
	}{
		{"referenced parent key gone", "s", []Column{IntColumn("s_pk", []int64{10, 20, 30}), IntColumn("s_x", []int64{9, 0, 0})}, "referential integrity"},
		{"duplicate parent key", "s", []Column{IntColumn("s_pk", []int64{10, 10, 30, 40}), IntColumn("s_x", []int64{9, 0, 0, 0})}, "duplicate primary key"},
		{"parent key column gone", "s", []Column{IntColumn("s_id", []int64{10, 20, 30, 40}), IntColumn("s_x", []int64{9, 0, 0, 0})}, "missing column"},
		{"child key without a parent", "r", []Column{IntColumn("r_fk", []int64{10, 50}), IntColumn("r_a", []int64{1, 1})}, "referential integrity"},
		{"child key column gone", "r", []Column{IntColumn("r_a", []int64{1, 1})}, "missing column"},
	}
	for _, c := range cases {
		err := d.CreateTable(c.table, c.cols...)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want it to mention %q", c.name, err, c.wantErr)
		}
		if d.db.Table("r") != oldR || d.db.Table("s") != oldS {
			t.Fatalf("%s: the refused recreate registered a table", c.name)
		}
		res, ex, err := d.QuerySwole(recreateQuery)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.PlanCached || res.Rows()[0][0] != want {
			t.Errorf("%s: answer %d (plan cached %v), want %d from the old tables' cached plan", c.name, res.Rows()[0][0], ex.PlanCached, want)
		}
	}
	checkFKIndexes(t, d)
}
