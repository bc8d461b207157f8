package core

import (
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
)

// refGroupAgg is the tuple-at-a-time ground truth for GroupAgg parity.
func refGroupAgg(db *storage.Database, sel int64) map[int64]int64 {
	r := db.MustTable("r")
	out := map[int64]int64{}
	for i := 0; i < r.Rows(); i++ {
		if sel < 0 || r.MustColumn("r_x").Get(i) < sel {
			out[r.MustColumn("r_c").Get(i)] += r.MustColumn("r_a").Get(i)
		}
	}
	return out
}

func sameGroups(t *testing.T, tag string, got, want map[int64]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d groups, want %d", tag, len(got), len(want))
		return
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: key %d = %d, want %d", tag, k, got[k], w)
			return
		}
	}
}

// TestPartitionedGroupAggParity forces the radix path and checks it is
// bit-identical to the forced-direct path and the tuple-at-a-time
// reference, across worker counts, group cardinalities, and selectivities
// (which steer the planner through all three masking strategies).
func TestPartitionedGroupAggParity(t *testing.T) {
	for _, ccard := range []int{16, 1000, 100_000} {
		db := testDB(t, 200_000, 1000, ccard)
		for _, workers := range []int{1, 4, 8} {
			for _, sel := range []int64{-1, 5, 50, 95} {
				q := GroupAgg{Table: "r", Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
				if sel >= 0 {
					q.Filter = lt("r_x", sel)
				}

				e := NewEngine(db)
				e.Workers = workers
				e.Partition = PartitionOff
				direct, exD, err := groupsOnce(e.PrepareGroupAgg(q))
				if err != nil {
					t.Fatal(err)
				}
				if exD.Partitioned {
					t.Fatalf("PartitionOff ran partitioned")
				}

				e.Partition = PartitionOn
				part, exP, err := groupsOnce(e.PrepareGroupAgg(q))
				if err != nil {
					t.Fatal(err)
				}
				if !exP.Partitioned || exP.Partitions < 2 {
					t.Fatalf("PartitionOn: Partitioned=%v Partitions=%d", exP.Partitioned, exP.Partitions)
				}
				e.Close()

				tag := "ccard=" + itoa(ccard) + " workers=" + itoa(workers) + " sel=" + itoa(int(sel))
				want := refGroupAgg(db, sel)
				sameGroups(t, tag+" direct", direct, want)
				sameGroups(t, tag+" partitioned", part, want)
			}
		}
	}
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

// TestPartitionedAutoDecision checks the Auto mode's crossover direction:
// a cache-resident table stays direct; the decision, either way, is
// recorded in the cost map when a fan-out exists.
func TestPartitionedAutoDecision(t *testing.T) {
	db := testDB(t, 100_000, 100, 16)
	e := NewEngine(db)
	defer e.Close()
	q := GroupAgg{Table: "r", Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
	_, ex, err := groupsOnce(e.PrepareGroupAgg(q))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Partitioned {
		t.Errorf("16-group table partitioned under Auto; budget should leave it direct")
	}
	if _, ok := ex.Costs["partitioned"]; ok {
		t.Errorf("cost map has a partitioned entry with no fan-out")
	}
}

// TestPreparedPartitionedParity checks prepared radix runs against the
// direct path's result, repeatedly (reused buffers must not leak state
// between runs).
func TestPreparedPartitionedParity(t *testing.T) {
	db := testDB(t, 150_000, 1000, 5000)
	for _, workers := range []int{1, 4, 8} {
		e := NewEngine(db)
		e.Workers = workers
		q := GroupAgg{Table: "r", Filter: lt("r_x", 50), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
		e.Partition = PartitionOff
		want, _, err := groupsOnce(e.PrepareGroupAgg(q))
		if err != nil {
			t.Fatal(err)
		}

		e.Partition = PartitionOn
		p, err := e.PrepareGroupAgg(q)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			res, ex := p.Run()
			if !ex.Partitioned || ex.Partitions < 2 {
				t.Fatalf("workers=%d run=%d: Partitioned=%v Partitions=%d", workers, run, ex.Partitioned, ex.Partitions)
			}
			sameGroups(t, "workers="+itoa(workers)+" run="+itoa(run), groupMap(res), want)
			// Keys must come out sorted — the GroupResult contract.
			for i := 1; i < res.Len(); i++ {
				if res.Key(i-1) >= res.Key(i) {
					t.Fatalf("workers=%d run=%d: keys not strictly ascending at %d", workers, run, i)
				}
			}
		}
		e.Close()
	}
}

// TestScatterArenaReuse pins the engine-level pooling contract behind the
// zero-alloc radix path: every partitioned plan on an engine scatters into
// the one shared chunk arena, a warm rerun reports FreshAllocs == 0, and a
// second plan binding against the same arena reuses it (same pool pointer,
// no second creation billed for the scatter buffers).
func TestScatterArenaReuse(t *testing.T) {
	db := testDB(t, 64_000, 1000, 100)
	e := NewEngine(db)
	defer e.Close()
	e.Workers = 4
	e.Partition = PartitionOn

	p1, err := e.PrepareGroupAgg(GroupAgg{Table: "r", Filter: lt("r_x", 50), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")})
	if err != nil {
		t.Fatal(err)
	}
	if _, ex := p1.Run(); !ex.Partitioned {
		t.Fatal("plan did not run partitioned")
	} else if ex.FreshAllocs == 0 {
		t.Error("cold partitioned run billed no fresh allocations")
	}
	if _, ex := p1.Run(); ex.FreshAllocs != 0 {
		t.Errorf("warm partitioned run billed %d fresh allocations, want 0", ex.FreshAllocs)
	}
	arena := e.scatter
	if arena == nil {
		t.Fatal("partitioned bind left no engine scatter arena")
	}
	for w, pr := range p1.parters {
		if pr.Pool() != arena {
			t.Fatalf("worker %d partitioner scatters outside the shared arena", w)
		}
	}

	// A second partitioned plan binds onto the same arena rather than
	// growing a private one; with identical demand the reservation is a
	// pure reuse, so the arena pointer is stable across both plans.
	p2, err := e.PrepareGroupAgg(GroupAgg{Table: "r", Filter: lt("r_x", 90), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")})
	if err != nil {
		t.Fatal(err)
	}
	if _, ex := p2.Run(); !ex.Partitioned {
		t.Fatal("second plan did not run partitioned")
	}
	if e.scatter != arena {
		t.Error("second plan replaced the shared scatter arena instead of reusing it")
	}
	for w, pr := range p2.parters {
		if pr.Pool() != arena {
			t.Fatalf("second plan worker %d partitioner scatters outside the shared arena", w)
		}
	}
	if _, ex := p2.Run(); ex.FreshAllocs != 0 {
		t.Errorf("second plan warm run billed %d fresh allocations, want 0", ex.FreshAllocs)
	}
	// Interleave the two plans: each rebind-free Run must stay fresh-free
	// even though both reset and refill the one arena.
	for i := 0; i < 3; i++ {
		if _, ex := p1.Run(); ex.FreshAllocs != 0 {
			t.Errorf("interleaved p1 run %d billed %d fresh allocations", i, ex.FreshAllocs)
		}
		if _, ex := p2.Run(); ex.FreshAllocs != 0 {
			t.Errorf("interleaved p2 run %d billed %d fresh allocations", i, ex.FreshAllocs)
		}
	}
}

// TestPreparedPartitionedZeroAlloc extends the PR 2 gate to the radix
// path: second and later prepared runs must not allocate, at one worker
// and at four, and must report the partitioned shape in Explain.
func TestPreparedPartitionedZeroAlloc(t *testing.T) {
	if raceEnabled {
		// The shared chunk arena makes scatter capacity schedule-independent,
		// but AllocsPerRun remains meaningless under the race detector (the
		// instrumentation itself allocates). Correctness of the partitioned
		// path under race is covered by the parity tests above.
		t.Skip("allocation gates require uninstrumented scheduling")
	}
	db := testDB(t, 64_000, 1000, 100)
	for _, workers := range []int{1, 4} {
		e := NewEngine(db)
		e.Workers = workers
		e.MorselRows = 4096
		e.Partition = PartitionOn

		group, err := e.PrepareGroupAgg(GroupAgg{Table: "r", Filter: lt("r_x", 50), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")})
		if err != nil {
			t.Fatal(err)
		}
		if _, ex := group.Run(); !ex.Partitioned || ex.Partitions < 2 {
			t.Fatalf("workers=%d: Partitioned=%v Partitions=%d", workers, ex.Partitioned, ex.Partitions)
		}
		if allocs := testing.AllocsPerRun(20, func() { group.Run() }); allocs != 0 {
			t.Errorf("workers=%d: partitioned group Run allocates %.1f per run, want 0", workers, allocs)
		}
		if _, ex := group.Run(); ex.HTGrows != 0 {
			t.Errorf("workers=%d: steady partitioned run grew tables %d times", workers, ex.HTGrows)
		}
		e.Close()
	}
}
