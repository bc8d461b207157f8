package swole

import (
	"testing"
)

// steadyTestDB builds a small Figure-7-style database with both fact and
// dimension tables for the full QuerySwole steady-state gates.
func steadyTestDB(t testing.TB) *DB {
	t.Helper()
	d, err := LoadMicro(MicroConfig{Rows: 131_072, DimRows: 1024, GroupKeys: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// steadyQueries are the gated shapes: scalar, group-by and semijoin
// aggregation, and — aggregating into key-addressed tables (dense) — a
// classic group-by, a groupjoin and a generic grouped statement.
var steadyQueries = []struct {
	name  string
	dense bool
	q     string
}{
	{"scalar-agg", false, "select sum(r_a * r_b) from r where r_x < 50"},
	{"group-agg", true, "select r_c, sum(r_a) from r where r_x < 50 group by r_c"},
	{"semijoin-agg", false, "select sum(r_a) from r, s where r_fk = s_pk and s_x < 50 and r_x < 50"},
	{"groupjoin-agg", true, "select r_fk, sum(r_a) from r, s where r_fk = s_pk and s_x < 50 group by r_fk"},
	{"generic-group", true, "select r_c, sum(r_a) as q, count(*) as n from r where r_x < 50 group by r_c having count(*) > 0"},
}

// TestQuerySwoleSteadyZeroAlloc is the end-to-end tentpole gate: the
// second and later executions of each supported query shape through the
// full QuerySwole path — SQL text in, materialized result out — must not
// allocate, at one worker and at four, whether or not the fact table is
// sharded (a shard layout is write-side only; the read path never sees it).
func TestQuerySwoleSteadyZeroAlloc(t *testing.T) {
	for _, shards := range []int{1, 4} {
		d := steadyTestDB(t)
		defer d.Close()
		if err := d.ShardTable("r", shards); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			d.SetWorkers(workers)
			for _, tc := range steadyQueries {
				if _, ex, err := d.QuerySwole(tc.q); err != nil {
					t.Fatalf("shards=%d workers=%d %s: %v", shards, workers, tc.name, err)
				} else if ex.Technique == "interpreter-fallback" {
					t.Fatalf("shards=%d workers=%d %s: shape fell back to the interpreter", shards, workers, tc.name)
				} else if (ex.DenseDomain > 0) != tc.dense {
					t.Fatalf("shards=%d workers=%d %s: DenseDomain=%d, want key-addressed=%v", shards, workers, tc.name, ex.DenseDomain, tc.dense)
				}
				// Second execution settles result-array capacity.
				if _, ex, err := d.QuerySwole(tc.q); err != nil {
					t.Fatal(err)
				} else if !ex.PlanCached {
					t.Fatalf("shards=%d workers=%d %s: second execution missed the plan cache", shards, workers, tc.name)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if _, _, err := d.QuerySwole(tc.q); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("shards=%d workers=%d %s: %.1f allocs per cached execution, want 0", shards, workers, tc.name, allocs)
				}
			}
		}
	}
}

// TestQuerySwoleSteadyAnswersMatchVolcano locks the steady-state executor
// to the interpreted reference engine: cold and warm executions of every
// gated shape must agree with Volcano exactly, at both worker counts.
func TestQuerySwoleSteadyAnswersMatchVolcano(t *testing.T) {
	d := steadyTestDB(t)
	defer d.Close()
	for _, workers := range []int{1, 4} {
		d.SetWorkers(workers)
		for _, tc := range steadyQueries {
			want, err := d.Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			wm := map[int64]int64{}
			for _, row := range want.Rows() {
				if len(row) == 1 {
					wm[0] = row[0]
				} else {
					wm[row[0]] = row[1]
				}
			}
			for rep := 0; rep < 3; rep++ {
				got, _, err := d.QuerySwole(tc.q)
				if err != nil {
					t.Fatal(err)
				}
				gm := map[int64]int64{}
				for _, row := range got.Rows() {
					if len(row) == 1 {
						gm[0] = row[0]
					} else {
						gm[row[0]] = row[1]
					}
				}
				if len(gm) != len(wm) {
					t.Fatalf("workers=%d %s rep=%d: %d rows, want %d", workers, tc.name, rep, len(gm), len(wm))
				}
				for k, w := range wm {
					if gm[k] != w {
						t.Errorf("workers=%d %s rep=%d key=%d: got %d, want %d", workers, tc.name, rep, k, gm[k], w)
					}
				}
			}
		}
	}
}

// TestSteadyStateExplainCounters checks the observability side of the
// steady state: a warm execution reports a plan cache hit, zero fresh
// resource allocations, and zero hash-table growths.
func TestSteadyStateExplainCounters(t *testing.T) {
	d := steadyTestDB(t)
	defer d.Close()
	d.SetWorkers(2)
	q := "select r_c, sum(r_a) from r where r_x < 50 group by r_c"
	if _, _, err := d.QuerySwole(q); err != nil {
		t.Fatal(err)
	}
	_, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.PlanCached {
		t.Error("warm execution: PlanCached=false")
	}
	if ex.FreshAllocs != 0 {
		t.Errorf("warm execution: FreshAllocs=%d, want 0", ex.FreshAllocs)
	}
	if ex.HTGrows != 0 {
		t.Errorf("warm execution: HTGrows=%d, want 0", ex.HTGrows)
	}
}
