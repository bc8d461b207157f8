package swole

import (
	"context"
	"fmt"
	"github.com/reprolab/swole/internal/storage"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// shardParityQueries are the statements a sharded table must answer
// identically to the interpreter: the four classic SWOLE shapes, then the
// general grammar on the generic executor. The multi-edge statement runs
// on the fuzz schema (fact f, sharded), the rest on the micro dataset
// (fact r, sharded).
var shardParityQueries = []struct {
	name string
	fuzz bool
	q    string
}{
	{"scalar-agg", false, "select sum(r_a * r_b) from r where r_x < 50"},
	{"group-agg", false, "select r_c, sum(r_a) from r where r_x < 50 group by r_c"},
	{"semijoin-agg", false, "select sum(r_a) from r, s where r_fk = s_pk and s_x < 50 and r_x < 50"},
	{"groupjoin-agg", false, "select r_fk, sum(r_a) from r, s where r_fk = s_pk and s_x < 50 group by r_fk"},
	{"avg", false, "select avg(r_b) as m, count(*) as n from r where r_x < 50"},
	{"min/max group", false, "select r_a, min(r_c) as lo, max(r_c) as hi from r where r_x > 25 group by r_a"},
	{"having", false, "select r_c, sum(r_a) as q from r group by r_c having sum(r_a) > 1000"},
	{"3-term or", false, "select r_a, sum(r_b) as q from r where r_x < 5 or r_b > 92 or r_c < 10 group by r_a"},
	{"two-key multi-aggregate", false, "select r_a, r_y, sum(r_b) as sb, sum(r_c) as sc, count(*) as n from r where r_x <= 97 group by r_a, r_y"},
	{"2-edge join group", true, "select d1_w, sum(f_a) as q, count(*) as n from f, d1, d2 where f_d1 = d1_pk and f_d2 = d2_pk and d1_v < 20 and d2_v < 15 group by d1_w"},
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

// TestShardParityMatrixAllEntryPoints runs every statement through both
// public entry points, cold and plan-cached warm, over fact tables split 1,
// 2 and 4 ways, at 1 and 4 workers, and requires the interpreted engine's
// exact answers. A
// shard layout is write-side only: the execution is one plan whose
// parallelism is the worker gang, so no Explain reports a fan-out.
func TestShardParityMatrixAllEntryPoints(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			micro, err := LoadMicro(MicroConfig{Rows: 16_000, DimRows: 500, GroupKeys: 64, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			defer micro.Close()
			fuzz := fuzzDB(t, 4000)
			defer fuzz.Close()
			for d, fact := range map[*DB]string{micro: "r", fuzz: "f"} {
				if err := d.ShardTable(fact, shards); err != nil {
					t.Fatal(err)
				}
				if got := d.ShardCount(fact); got != shards {
					t.Fatalf("ShardCount(%s) = %d, want %d", fact, got, shards)
				}
			}
			for _, workers := range []int{1, 4} {
				for _, d := range []*DB{micro, fuzz} {
					d.SetWorkers(workers) // clears the plan cache: the next run is cold
				}
				for _, tc := range shardParityQueries {
					d := micro
					if tc.fuzz {
						d = fuzz
					}
					tag := fmt.Sprintf("%s workers=%d", tc.name, workers)
					var ex Explain
					swole := func() (res *Result, _ Explain, err error) {
						res, ex, err = d.QuerySwole(tc.q)
						return res, ex, err
					}
					checkParity(t, d, tc.q, false, tag+" QuerySwole cold", swole)
					if ex.PlanCached {
						t.Errorf("%s: cold run claims a plan-cache hit", tag)
					}
					checkParity(t, d, tc.q, true, tag+" QuerySwole warm", swole)
					if ex.ShardCount != 0 || ex.ShardTimes != nil || ex.ShardMergeTime != 0 {
						t.Errorf("%s: in-process Explain reports a fan-out: %d shards, times %v", tag, ex.ShardCount, ex.ShardTimes)
					}
					// QueryContext returns a private copy of the same answer.
					checkParity(t, d, tc.q, true, tag+" QueryContext", func() (*Result, Explain, error) { return d.QueryContext(ctx, tc.q) })
				}
			}
		})
	}
}

// TestShardReplaceRaceCrossShardReads is the shard layer's -race test: 4
// writer goroutines each continuously ReplaceShard their own shard of a
// 4-way table while 12 readers run cross-shard scalar and grouped queries
// through both entry points. Writers install row-rotations of their
// shard's data, so every aggregate is invariant — readers must see exactly
// the reference answer at every instant, while plans are being evicted and
// re-prepared underneath them.
func TestShardReplaceRaceCrossShardReads(t *testing.T) {
	d := cacheTestDB(t, 1) // table t(a, x, c), 4096 rows
	defer d.Close()
	const k = 4
	if err := d.ShardTable("t", k); err != nil {
		t.Fatal(err)
	}

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

	// Per-shard base data, from cacheTestDB's formulas over global row
	// indexes.
	const n, per = 4096, 4096 / k
	base := func(shard int) (a, x, c []int64) {
		a = make([]int64, per)
		x = make([]int64, per)
		c = make([]int64, per)
		for j := 0; j < per; j++ {
			i := shard*per + j
			a[j] = int64(i % 7)
			x[j] = int64(i % 10)
			c[j] = int64(i % 5)
		}
		return
	}
	rotate := func(v []int64, r int) []int64 {
		out := make([]int64, len(v))
		for j := range v {
			out[j] = v[(j+r)%len(v)]
		}
		return out
	}

	const writers, readers, iters = 4, 12, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for s := 0; s < writers; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, x, c := base(s)
			for it := 1; it <= iters; it++ {
				r := (it * 37) % per
				err := d.ReplaceShard("t", s,
					IntColumn("a", rotate(a, r)),
					IntColumn("x", rotate(x, r)),
					IntColumn("c", rotate(c, r)),
				)
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", s, err)
					return
				}
			}
		}()
	}
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if g%2 == 0 {
					q := scalarQ
					res, _, err := d.QueryContext(context.Background(), q)
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
		}()
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
// r; fk is the foreign-key value of every row.
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

// TestReplaceShardFailureChangesNothing pins ReplaceShard's atomicity:
// nothing is registered until the replacement table and all of its child
// indexes are built, so a refused replacement leaves the registered tables, the
// shard layout, the plan cache and every answer exactly as they were.
func TestReplaceShardFailureChangesNothing(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 20_000, DimRows: 100, GroupKeys: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.CreateTable("g", IntColumn("g_v", []int64{1, 2, 3, 4}), StringColumn("g_s", []string{"a", "b", "a", "b"})); err != nil {
		t.Fatal(err)
	}
	for table, k := range map[string]int{"r": 4, "g": 2} {
		if err := d.ShardTable(table, k); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		"select sum(r_a * r_b) from r where r_x < 50",
		"select r_c, sum(r_a) from r where r_x < 50 group by r_c",
		"select s_x, sum(r_b) as q, count(*) as n from r, s where r_fk = s_pk and s_x < 50 group by s_x",
	}
	type state struct {
		tables  [3]*storage.Table
		counts  [3]int
		bounds  string
		plans   int
		answers [3][][]int64
	}
	snapshot := func(label string) state {
		var st state
		for i, tn := range []string{"r", "s", "g"} {
			st.tables[i], st.counts[i] = d.db.Table(tn), d.ShardCount(tn)
		}
		st.bounds = fmt.Sprint(d.shardMeta["r"].bounds, d.shardMeta["g"].bounds)
		for i, q := range queries {
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

	with := func(i int, c Column) []Column {
		cols := replacement(10, 5)
		cols[i] = c
		return cols
	}
	cases := []struct {
		name, table string
		shard       int
		cols        []Column
		wantErr     string
	}{
		{"fk value missing from the parent", "r", 1, replacement(10, 99_999), "referential integrity"},
		{"too few columns", "r", 1, replacement(10, 5)[:5], "columns"},
		{"too many columns", "r", 1, append(replacement(10, 5), IntColumn("extra", make([]int64, 10))), "columns"},
		{"wrong column name", "r", 1, with(2, IntColumn("r_z", make([]int64, 10))), "r_z"},
		{"wrong value kind", "r", 1, with(0, DecimalColumn("r_a", make([]int64, 10))), "value kind"},
		{"ragged columns", "r", 1, with(3, IntColumn("r_y", make([]int64, 7))), ""},
		{"unparsable date column", "r", 1, with(0, DateColumn("r_a", []string{"not a date"})), ""},
		{"uninitialized column", "r", 1, with(4, Column{}), "uninitialized"},
		{"string column", "g", 0, []Column{IntColumn("g_v", []int64{9}), StringColumn("g_s", []string{"a"})}, "string column"},
		{"shard past the layout", "r", 4, replacement(10, 5), "out of range"},
		{"negative shard", "r", -1, replacement(10, 5), "out of range"},
		{"unsharded table", "s", 0, []Column{IntColumn("s_pk", []int64{1}), IntColumn("s_x", []int64{1})}, "not sharded"},
		{"unknown table", "nope", 0, replacement(10, 5), "not sharded"},
	}
	for _, c := range cases {
		err := d.ReplaceShard(c.table, c.shard, c.cols...)
		if err == nil {
			t.Fatalf("%s: replacement accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q, want it to mention %q", c.name, err, c.wantErr)
		}
		if after := snapshot(c.name); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Errorf("%s changed observable state:\nbefore %v\nafter  %v", c.name, before, after)
		}
	}

	// Control: a valid replacement of the same shard goes through and moves
	// everything the failed ones must not.
	if err := d.ReplaceShard("r", 1, replacement(10, 5)...); err != nil {
		t.Fatal(err)
	}
	after := snapshot("")
	if after.tables[0] == before.tables[0] || after.bounds == before.bounds || fmt.Sprint(after.answers) == fmt.Sprint(before.answers) {
		t.Errorf("a successful replacement changed nothing (test is vacuous): %v", after)
	}
	if after.tables[1] != before.tables[1] || after.tables[2] != before.tables[2] {
		t.Errorf("replacing a shard of r re-registered another table: %v, were %v", after.tables, before.tables)
	}
	for _, q := range queries {
		checkParity(t, d, q, true, "after replacement", func() (*Result, Explain, error) { return d.QuerySwole(q) })
	}
}

// checkShardLayout verifies the layout invariant of a table: its bounds
// start at 0, never decrease, and end at the table's row count.
func checkShardLayout(t *testing.T, d *DB, table string) {
	t.Helper()
	m := d.shardMeta[table]
	if m == nil {
		return
	}
	rows := d.db.Table(table).Rows()
	if m.k() < 2 || m.bounds[0] != 0 || m.bounds[m.k()] != rows {
		t.Fatalf("%s: bounds %v over %d rows", table, m.bounds, rows)
	}
	for i := 0; i < m.k(); i++ {
		if m.bounds[i] > m.bounds[i+1] {
			t.Fatalf("%s: bounds %v decrease at shard %d", table, m.bounds, i)
		}
	}
}

// TestShardStatefulParity is the stateful differential test: a random
// interleaving of layout changes, appends through every ingest door, shard
// replacements and worker-count changes on the fuzz schema's fact table (a
// foreign-key child), with a random statement checked against the
// interpreter — cold, then warm — after every step, together with the
// statement of the step before (cached across layout changes, evicted by
// writes) and the shard-layout invariant.
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
			prev := "select count(*) as n from f"
			for step := 0; step < steps; step++ {
				before := d.db.Table("f").Rows()
				var op string
				switch r.Intn(7) {
				case 0:
					k := 1 + r.Intn(5)
					op = fmt.Sprintf("ShardTable(f, %d)", k)
					if err := d.ShardTable("f", k); err != nil {
						t.Fatalf("step %d %s: %v", step, op, err)
					}
					if before > 0 {
						k = min(k, before) // at most one shard per row
					}
					if got := d.ShardCount("f"); got != k {
						t.Fatalf("step %d %s: ShardCount = %d over %d rows, want %d", step, op, got, before, k)
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
					k := d.ShardCount("f")
					shard := r.Intn(k)
					n := 1
					if m := d.shardMeta["f"]; m != nil {
						n = []int{0, 1, 1 + r.Intn(m.target), m.target + r.Intn(m.target), 2 * m.target}[r.Intn(5)]
					}
					batch := make([][]int64, 5)
					for c := range batch {
						batch[c] = make([]int64, n)
					}
					for i := 0; i < n; i++ {
						for c, v := range factRow() {
							batch[c][i] = v
						}
					}
					op = fmt.Sprintf("ReplaceShard(f, %d of %d, %d rows)", shard, k, n)
					err := d.ReplaceShard("f", shard, IntColumn("f_k", batch[0]), IntColumn("f_a", batch[1]),
						IntColumn("f_b", batch[2]), IntColumn("f_d1", batch[3]), IntColumn("f_d2", batch[4]))
					if (err == nil) != (k > 1) {
						t.Fatalf("step %d %s: %v", step, op, err)
					}
				default:
					w := []int{1, 2, 4}[r.Intn(3)]
					op = fmt.Sprintf("SetWorkers(%d)", w)
					d.SetWorkers(w)
				}
				checkShardLayout(t, d, "f")
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

// TestShardReplaceRaceJoinReaders is the foreign-key variant of the race
// test above: writers rotate the rows of their own shard of the micro fact
// table — a foreign-key child, so every replacement also swaps its index —
// while readers compile and run a generic join statement whose plan binds
// both the table and the index. A plan must never pair one registration's
// table with another's index: answers stay exact throughout.
func TestShardReplaceRaceJoinReaders(t *testing.T) {
	const k, rows = 4, 8192
	d, err := LoadMicro(MicroConfig{Rows: rows, DimRows: 64, GroupKeys: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.ShardTable("r", k); err != nil {
		t.Fatal(err)
	}
	q := "select s_x, sum(r_b) as q, count(*) as n from r, s where r_fk = s_pk and r_x < 60 group by s_x"
	ref, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(ref.Rows())

	// Writer s replaces shard s with rotations of its original rows; shard
	// sizes differ by rotation parity, so the bounds move as well.
	base := d.db.Table("r")
	const per = rows / k
	const writers, readers, iters = k, 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for s := 0; s < writers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for it := 1; it <= iters; it++ {
				cols := make([]Column, len(base.Columns))
				for ci, c := range base.Columns {
					vals := make([]int64, per)
					for j := range vals {
						vals[j] = c.Get(s*per + (j+it*37)%per)
					}
					cols[ci] = IntColumn(c.Name, vals)
				}
				if err := d.ReplaceShard("r", s, cols...); err != nil {
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
					errs <- fmt.Errorf("reader %d, run %d: wrong groups (rotating a shard's rows must not change them)", g, it)
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
	checkShardLayout(t, d, "r")
	checkParity(t, d, q, false, "after the race", func() (*Result, Explain, error) { return d.QuerySwole(q) })
}
