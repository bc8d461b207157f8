package swole

import (
	"fmt"
	"slices"
	"testing"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/vec"
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
// classic group-by, a groupjoin, a generic grouped statement and a group-by
// sorted and cut by ORDER BY and LIMIT.
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
	{"ordered-group", true, "select r_c, sum(r_a) as s from r group by r_c order by s desc limit 3"},
}

// TestQuerySwoleSteadyZeroAlloc is the end-to-end tentpole gate: the
// second and later executions of each gated statement through the full
// QuerySwole path — SQL text in, materialized result out — must not
// allocate, at one worker and at four. The gated statements are
// steadyQueries, and at test scale the statements the steady-state
// benchmarks time: the 15 micro_classic statements, the 8 tpch_generic
// ones, and the sparse key's hashed group-by.
func TestQuerySwoleSteadyZeroAlloc(t *testing.T) {
	d := steadyTestDB(t)
	defer d.Close()
	for _, workers := range []int{1, 4} {
		d.SetWorkers(workers)
		for _, tc := range steadyQueries {
			tag := fmt.Sprintf("workers=%d %s", workers, tc.name)
			if ex := steadyZeroAlloc(t, d, tag, tc.q); (ex.DenseDomain > 0) != tc.dense {
				t.Errorf("%s: DenseDomain=%d, want key-addressed=%v", tag, ex.DenseDomain, tc.dense)
			}
		}
	}
	// 4096 keys of r_c: enough that no key-addressed table may cover the
	// sparse key's range.
	micro, err := LoadMicro(MicroConfig{Rows: 131_072, DimRows: 1024, GroupKeys: 4096, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer micro.Close()
	addSparseKey(t, micro)
	tpch := LoadTPCH(0.01)
	defer tpch.Close()
	for _, workers := range []int{1, 4} {
		micro.SetWorkers(workers)
		tpch.SetWorkers(workers)
		for _, s := range microClassicStatements {
			steadyZeroAlloc(t, micro, fmt.Sprintf("workers=%d micro_classic %s", workers, s.id), s.q)
		}
		for _, s := range tpchStatements {
			steadyZeroAlloc(t, tpch, fmt.Sprintf("workers=%d tpch_generic %s", workers, s.id), s.q)
		}
		tag := fmt.Sprintf("workers=%d sparse key", workers)
		if ex := steadyZeroAlloc(t, micro, tag, sparseKeyQuery); ex.DenseDomain != 0 {
			t.Errorf("%s: DenseDomain=%d, want the hashed table", tag, ex.DenseDomain)
		}
	}
}

// steadyZeroAlloc executes q cold, then warm until its plan is cached and its
// result array settled, and fails the test unless a further warm execution
// allocates nothing. It returns the cold execution's Explain.
func steadyZeroAlloc(t *testing.T, d *DB, tag, q string) Explain {
	t.Helper()
	_, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if ex.Technique == "interpreter-fallback" {
		t.Fatalf("%s: statement fell back to the interpreter", tag)
	}
	// Second execution settles result-array capacity.
	if _, warm, err := d.QuerySwole(q); err != nil {
		t.Fatalf("%s: %v", tag, err)
	} else if !warm.PlanCached {
		t.Fatalf("%s: second execution missed the plan cache", tag)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := d.QuerySwole(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%s: %.1f allocs per cached execution, want 0", tag, allocs)
	}
	return ex
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

// TestFusedFoldPins pins the one-pass grouped fold on the three tpch_generic
// statements whose lanes it fuses: q1_multiagg (two key columns, the count
// and two sums), minmax_group (a min and a max over one operand) and
// or3_having (one sum, packed) read their key and argument columns in
// place — no column tile is widened — and
// keep the technique, the key-addressed domain and the table footprint they
// had when every lane folded in a pass of its own. On micro_classic's
// shapes it pins both sides of the rule that fuses a fold only into a group
// table of at most 1 MB (core's fuseBytes), at a scale whose r_c table
// (200K keys, 1.6 MB packed) is over the bound and whose r_a and r_fk tables
// are under it: the r_a group-by and the groupjoin (one sum, one key column)
// widen no column tile, the r_c group-by still widens its key and argument,
// and the scalar sum(r_a * r_b) reads both factors in place. It also pins
// the fold key (Explain.Kernel) of every tpch_generic and micro_classic
// statement — the ht or vec loop each runs and its instantiation widths — and
// of the scalar statement CI's server smoke asks swoled's /explain for, at
// that server's dataset (100K rows, 1,000 keys, the default seed) and at
// several worker counts, and of the grouped statement it asks for too.
// Where the CPU runs the fused int8 loop (vec.HasAVX2) the scalar
// statements compute their predicate inline, and scalar.s05 takes value
// masking at that loop's own price; there q1_multiagg, or3_having and
// minmax_group, whose int8 keys address a table of at most 16 records,
// fold by the AVX2 passes (the /avx2 variant) with the technique, domain
// and footprint pinned above.
func TestFusedFoldPins(t *testing.T) {
	tpch := LoadTPCH(0.01)
	defer tpch.Close()
	want := map[string]struct {
		tech          string
		domain, bytes int
	}{
		"q1_multiagg":  {"key-masking", 6, 168},
		"minmax_group": {"value-masking", 7, 192},
		"or3_having":   {"value-masking", 7, 64},
	}
	kernels := map[string]string{
		"q1_multiagg":     "sum2(i8;i8,i32)/keyed/key",
		"or3_having":      "sum1(i8;i8)/packed/value",
		"not_scalar":      "sum(i32)/scalar/value",
		"join2_group":     "sum1(i64;i64)/packed/none",
		"snowflake3":      "sum1(i64;i64)/keyed/none",
		"minmax_group":    "minmax(i8;i32)/keyed/value",
		"join_minmax":     "min(i64)+max(i64)/scalar/value",
		"or3_join_having": "lanes(i64)/keyed/value",
	}
	if vec.HasAVX2 { // a small group table over int8 keys folds one slot a pass
		for _, id := range []string{"q1_multiagg", "or3_having", "minmax_group"} {
			kernels[id] += "/avx2"
		}
	}
	for _, s := range tpchStatements {
		_, ex, err := tpch.QuerySwole(s.q)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Kernel != kernels[s.id] {
			t.Errorf("%s: kernel %s, want %s", s.id, ex.Kernel, kernels[s.id])
		}
		w, ok := want[s.id]
		if !ok {
			continue
		}
		if ex.Variants.Widen != [4]uint64{} {
			t.Errorf("%s: widened %v column tiles (int8..int64), want none", s.id, ex.Variants.Widen)
		}
		if string(ex.Technique) != w.tech || ex.DenseDomain != w.domain || ex.HTBytes != w.bytes {
			t.Errorf("%s: technique %s, DenseDomain %d, HTBytes %d; want %s, %d, %d",
				s.id, ex.Technique, ex.DenseDomain, ex.HTBytes, w.tech, w.domain, w.bytes)
		}
	}

	micro, err := LoadMicro(MicroConfig{Rows: 100_000, DimRows: 20_000, GroupKeys: 200_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer micro.Close()
	micro.SetWorkers(1)
	for _, m := range []struct {
		id, tech string
		over     bool // the group table is over the bound
		widen    [4]uint64
	}{
		{"group_r_a.s50", "value-masking", false, [4]uint64{}},
		{"groupjoin.s95", "eager-aggregation", false, [4]uint64{}},
		{"scalar.s95", "value-masking", false, [4]uint64{}},
		{"group_r_c.s95", "value-masking", true, [4]uint64{98, 0, 98, 0}}, // 98 tiles: r_b at int8, r_c at int32
	} {
		i := slices.IndexFunc(microClassicStatements, func(s steadyStmt) bool { return s.id == m.id })
		_, ex, err := micro.QuerySwole(microClassicStatements[i].q)
		if err != nil {
			t.Fatal(err)
		}
		if string(ex.Technique) != m.tech || ex.Variants.Widen != m.widen || m.id[:6] != "scalar" && (ex.HTBytes > 1<<20) != m.over {
			t.Errorf("%s: technique %s, widened %v column tiles (int8..int64), HTBytes %d; want %s, %v, over 1 MB %v",
				m.id, ex.Technique, ex.Variants.Widen, ex.HTBytes, m.tech, m.widen, m.over)
		}
	}
	// Hybrid compacts: its sums read tile vectors, and one sum into a
	// key-addressed table folds as unmasked pairs.
	for _, s := range microClassicStatements {
		want := map[string]string{
			"scalar": "sumprod(i8,i8)/scalar/value", "group_r_a": "sum1(i8;i8)/packed/value",
			"semijoin": "sum(i8)/scalar/value", "group_r_c": "sum1(i64;i64)/packed/none",
			"groupjoin": "sum1(i32;i8)/packed/none",
		}[s.id[:len(s.id)-4]]
		switch s.id {
		case "scalar.s05":
			want = "sumprod(i64,i64)/scalar/value"
		case "group_r_a.s05":
			want = "sum1(i64;i64)/packed/none"
		case "semijoin.s05":
			want = "sum(i64)/scalar/value"
		case "groupjoin.s05":
			want = "sum1(i64;i64)/packed/none"
		case "group_r_c.s95": // over the bound: the pair loop over widened vectors
			want = "sum1(i64;i64)/packed/value"
		}
		if vec.HasAVX2 && s.id[:6] == "scalar" {
			want = "sumprod(i8,i8)/scalar/cmp(i8,i8)/avx2"
		}
		if _, ex, err := micro.QuerySwole(s.q); err != nil {
			t.Fatal(err)
		} else if ex.Kernel != want {
			t.Errorf("%s: %s, kernel %s, want %s", s.id, ex.Technique, ex.Kernel, want)
		}
	}
	i := slices.IndexFunc(microClassicStatements, func(s steadyStmt) bool { return s.id == "scalar.s05" })
	if _, ex, err := micro.QuerySwole(microClassicStatements[i].q); err != nil {
		t.Fatal(err)
	} else if fused := cost.Default().ValueMaskingFused(100_000); vec.HasAVX2 &&
		(ex.Technique != "value-masking" || ex.Costs["value-masking"] != fused || ex.Costs["hybrid"] <= fused) {
		t.Errorf("scalar.s05: %s at %v, want value-masking at the fused loop's %v", ex.Technique, ex.Costs, fused)
	}
	// Both compares of every tile count at int8, computed inline or not: 98
	// tiles, none of which the first compare empties at 95 %.
	i = slices.IndexFunc(microClassicStatements, func(s steadyStmt) bool { return s.id == "scalar.s95" })
	if _, ex, err := micro.QuerySwole(microClassicStatements[i].q); err != nil {
		t.Fatal(err)
	} else if ex.Variants.Cmp != [4]uint64{196, 0, 0, 0} {
		t.Errorf("scalar.s95: %v compare tiles (int8..int64), want 196 at int8", ex.Variants.Cmp)
	}
	// The statement CI's server smoke greps /explain's "Kernel" for.
	smoke, err := LoadMicro(MicroConfig{Rows: 100_000, DimRows: 1_000, GroupKeys: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	defer smoke.Close()
	key := "sum(i8)/scalar/value"
	if vec.HasAVX2 {
		key = "sum(i8)/scalar/cmp(i8)/avx2"
	}
	for _, workers := range []int{1, 2, 4, 8} {
		smoke.SetWorkers(workers)
		if _, ex, err := smoke.QuerySwole("select sum(r_b) from r where r_a < 50"); err != nil {
			t.Fatal(err)
		} else if ex.Kernel != key {
			t.Errorf("server smoke statement at %d workers: %s, kernel %s, want %s", workers, ex.Technique, ex.Kernel, key)
		}
	}
	// The grouped statement CI's server smoke greps /explain's "Kernel" for:
	// r_y, one int8 value, keys a small group table.
	key = "sum1(i8;i8)/packed/value"
	if vec.HasAVX2 {
		key += "/avx2"
	}
	for _, workers := range []int{1, 2, 4, 8} {
		smoke.SetWorkers(workers)
		if _, ex, err := smoke.QuerySwole(smokeGrouped); err != nil {
			t.Fatal(err)
		} else if ex.Kernel != key || ex.DenseDomain != 1 {
			t.Errorf("grouped server smoke statement at %d workers: %s, kernel %s over %d keys, want %s over 1", workers, ex.Technique, ex.Kernel, ex.DenseDomain, key)
		}
	}
}

// smokeGrouped is the grouped statement of CI's server smoke.
const smokeGrouped = "select r_y, sum(r_b) as s, count(*) as n from r where r_a < 50 group by r_y"
