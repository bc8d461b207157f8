package swole

import (
	"context"
	"testing"
)

// selectForms are the eight tpch_generic statement forms (benchmark/
// workloads.go) transcribed onto the test schemas, a hashed three-key group
// and an ordered one: none collapses to a classic shape, so each runs on the
// generic executor. The single-edge and no-edge forms use the micro schema,
// the multi-edge ones the fuzz schema.
var selectForms = []struct {
	name  string
	fuzz  bool // runs on fuzzDB instead of the micro dataset
	dense bool // aggregates into a key-addressed group table
	q     string
}{
	{"two-key multi-aggregate", false, true,
		"select r_a, r_y, sum(r_b) as sb, sum(r_c) as sc, count(*) as n from r where r_x <= 97 group by r_a, r_y"},
	{"3-term OR + HAVING", false, true,
		"select r_a, sum(r_b) as q, count(*) as n from r where r_x < 5 or r_b > 92 or r_c < 10 group by r_a having count(*) > 3"},
	{"NOT scalar", false, false,
		"select count(*) as n, sum(r_c) as s from r where not (r_x between 10 and 40) and r_b < 50 and r_a >= 2"},
	{"2-edge join group", true, true,
		"select d1_w, sum(f_a) as q, count(*) as n from f, d1, d2 where f_d1 = d1_pk and f_d2 = d2_pk and d1_v < 20 and d2_v < 15 group by d1_w"},
	{"3-edge snowflake", true, true,
		"select d3_v, sum(f_b) as rev, count(*) as n from f, d1, d2, d3 where f_d1 = d1_pk and f_d2 = d2_pk and d1_fk3 = d3_pk and d1_v >= 5 and f_a < 15 group by d3_v"},
	{"min/max group", false, true,
		"select r_a, min(r_c) as lo, max(r_c) as hi from r where r_x > 25 and r_b >= 2 group by r_a"},
	{"join min/max", false, false,
		"select min(r_c) as lo, max(r_c) as hi, count(*) as n from r, s where r_fk = s_pk and s_x < 10 and r_x >= 1"},
	{"OR over a join + HAVING", false, true,
		"select s_x, sum(r_b) as q, max(r_a) as d from r, s where r_fk = s_pk and (r_y = 0 or r_a = 7 or r_b > 45) group by s_x having sum(r_b) > 1000"},
	// The grouped forms above all aggregate into key-addressed tables; this
	// one's composite key spans too wide a domain and stays hashed.
	{"three-key group", false, false,
		"select r_c, r_fk, r_a, sum(r_b) as q, count(*) as n from r where r_x < 30 group by r_c, r_fk, r_a"},
	// Sorted by its count, which ties across groups, and cut by a LIMIT
	// inside a run of tied counts.
	{"ORDER BY + LIMIT", false, true,
		"select r_a, sum(r_b) as q, count(*) as n from r where r_x < 50 group by r_a order by n desc limit 6"},
}

// selectFormDBs builds the two datasets selectForms run on.
func selectFormDBs(t testing.TB) (micro, fuzz *DB) {
	t.Helper()
	micro, err := LoadMicro(MicroConfig{Rows: 20_000, DimRows: 512, GroupKeys: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return micro, fuzzDB(t, 5000)
}

// TestSelectSteadyZeroAlloc is the generic executor's steady-state gate:
// the third and later QuerySwole executions of every statement form — SQL
// text in, materialized rows out — allocate nothing, on the default gang
// and with the ungrouped forms scanning on a gang of four over many small
// morsels.
func TestSelectSteadyZeroAlloc(t *testing.T) {
	for _, workers := range []int{0, 4} {
		micro, fuzz := selectFormDBs(t)
		defer micro.Close()
		defer fuzz.Close()
		if workers > 0 {
			for _, d := range []*DB{micro, fuzz} {
				d.SetWorkers(workers)
				smallMorsels(d)
			}
		}
		for _, f := range selectForms {
			d := micro
			if f.fuzz {
				d = fuzz
			}
			for rep := 0; rep < 2; rep++ {
				_, ex, err := d.QuerySwole(f.q)
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				if ShapeBucket(ex.Shape) == "interpreter-fallback" {
					t.Fatalf("%s fell back to the interpreter", f.name)
				}
				if rep == 1 && (!ex.PlanCached || ex.FreshAllocs != 0) {
					t.Errorf("workers=%d %s: second run PlanCached=%t FreshAllocs=%d", workers, f.name, ex.PlanCached, ex.FreshAllocs)
				}
				if (ex.DenseDomain > 0) != f.dense {
					t.Errorf("workers=%d %s: DenseDomain=%d, want key-addressed=%v", workers, f.name, ex.DenseDomain, f.dense)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, _, err := d.QuerySwole(f.q); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("workers=%d %s: %.1f allocs per warm execution, want 0", workers, f.name, allocs)
			}
		}
	}
}

// smallMorsels shrinks d's morsels to one tile, so test-sized tables span
// many and every worker of a gang gets some.
func smallMorsels(d *DB) {
	d.engine.Reconfigure(func() { d.engine.MorselRows = 1024 })
}

// ungroupedGang are the statements that scan on the worker gang: the classic
// scalar and semijoin shapes and the ungrouped selectForms.
var ungroupedGang = []string{
	"select sum(r_a * r_b) as s from r where r_x < 50 and r_y = 1",
	"select count(*) as n from r where r_x < 7",
	"select sum(r_a) as s from r, s where r_fk = s_pk and s_x < 50 and r_x < 50",
	selectForms[2].q, // NOT scalar
	selectForms[6].q, // join min/max
}

// TestSelectGangParity: every ungrouped statement answers exactly as the
// interpreter does at every worker count, over morsels small enough that
// each worker folds several and the merge has stripes to combine. Not
// skipped under -short: the race job runs it.
func TestSelectGangParity(t *testing.T) {
	d, _ := selectFormDBs(t)
	defer d.Close()
	smallMorsels(d)
	for _, q := range ungroupedGang {
		want, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows()) != 1 {
			t.Fatalf("%q: %d rows, want the one scalar row", q, len(want.Rows()))
		}
		for _, workers := range []int{1, 2, 4, 7} {
			d.SetWorkers(workers) // clears the plan cache: the next run compiles at this count
			for rep := 0; rep < 3; rep++ {
				res, ex, err := d.QuerySwole(q)
				if err != nil {
					t.Fatal(err)
				}
				if ex.PlanCached != (rep > 0) {
					t.Errorf("workers=%d rep=%d %q: PlanCached=%t", workers, rep, q, ex.PlanCached)
				}
				if !rowsEqual(want.Rows(), res.Rows()) {
					t.Errorf("workers=%d rep=%d %q:\nvolcano: %v\nswole:   %v", workers, rep, q, want.Rows(), res.Rows())
				}
			}
		}
	}
}

// TestSelectForcedTechniqueParity pins every kernel of the generic
// executor: each statement form under each technique of its menu answers
// exactly as the interpreter does.
func TestSelectForcedTechniqueParity(t *testing.T) {
	micro, fuzz := selectFormDBs(t)
	defer micro.Close()
	defer fuzz.Close()
	for _, f := range selectForms {
		d := micro
		if f.fuzz {
			d = fuzz
		}
		want, err := d.Query(f.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows()) == 0 {
			t.Fatalf("%s: empty answer proves nothing", f.name)
		}
		spec := synthesized(t, d, f.q)
		menu := d.engine.Techniques(spec)
		if wantN := 2 + min(len(spec.GroupBy), 1); len(menu) != wantN {
			t.Fatalf("%s: menu %v, want %d techniques", f.name, menu, wantN)
		}
		for _, tech := range menu {
			forced, err := d.engine.PrepareForced(synthesized(t, d, f.q), tech)
			if err != nil {
				t.Fatalf("%s forced %s: %v", f.name, tech, err)
			}
			for rep := 0; rep < 2; rep++ {
				res, ex, err := forced.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if ex.Technique != tech {
					t.Errorf("%s forced %s: Explain.Technique=%s", f.name, tech, ex.Technique)
				}
				if w, got := answerOrder(f.q, want.Rows()), answerOrder(f.q, forcedRows(forced, res)); !rowsEqual(w, got) {
					t.Errorf("%s forced %s rep %d:\nvolcano: %v\nswole:   %v", f.name, tech, rep, w, got)
				}
			}
		}
	}
}
