package swole

import "testing"

// partitionQueries are the group-by shapes the radix path covers
// end-to-end: the classic group-by aggregation, the one plan the partition
// mode steers.
var partitionQueries = []struct {
	name string
	q    string
}{
	{"group-agg", "select r_c, sum(r_a) from r where r_x < 50 group by r_c"},
}

// TestQuerySwolePartitionedMatchesVolcano forces the radix-partitioned
// path through the full SQL surface and locks it to the interpreted
// reference engine, cold and warm, at both worker counts.
func TestQuerySwolePartitionedMatchesVolcano(t *testing.T) {
	d := steadyTestDB(t)
	defer d.Close()
	d.SetPartitionMode(PartitionOn)
	defer d.SetPartitionMode(PartitionAuto)
	for _, workers := range []int{1, 4} {
		d.SetWorkers(workers)
		for _, tc := range partitionQueries {
			want, err := d.Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			wm := map[int64]int64{}
			for _, row := range want.Rows() {
				wm[row[0]] = row[1]
			}
			for rep := 0; rep < 3; rep++ {
				got, ex, err := d.QuerySwole(tc.q)
				if err != nil {
					t.Fatal(err)
				}
				if !ex.Partitioned || ex.Partitions < 2 {
					t.Fatalf("workers=%d %s rep=%d: Partitioned=%v Partitions=%d, want forced radix path",
						workers, tc.name, rep, ex.Partitioned, ex.Partitions)
				}
				gm := map[int64]int64{}
				for _, row := range got.Rows() {
					gm[row[0]] = row[1]
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

// TestQuerySwolePartitionedSteadyZeroAlloc extends the end-to-end
// zero-allocation gate to the radix path: cached executions of the forced
// partitioned shapes must not allocate, at one worker and at four.
func TestQuerySwolePartitionedSteadyZeroAlloc(t *testing.T) {
	if raceEnabled {
		// Same skip as internal/core's TestPreparedPartitionedZeroAlloc:
		// the race detector's scheduling perturbation keeps redistributing
		// rows across workers, so per-worker partition buffer capacities
		// never converge and AllocsPerRun cannot reach zero. The
		// partitioned path's race-freedom is covered by the parity tests
		// in this file and internal/core's.
		t.Skip("allocation gate is meaningless under the race detector")
	}
	d := steadyTestDB(t)
	defer d.Close()
	d.SetPartitionMode(PartitionOn)
	defer d.SetPartitionMode(PartitionAuto)
	for _, workers := range []int{1, 4} {
		d.SetWorkers(workers)
		for _, tc := range partitionQueries {
			if _, ex, err := d.QuerySwole(tc.q); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, tc.name, err)
			} else if !ex.Partitioned {
				t.Fatalf("workers=%d %s: forced mode did not partition", workers, tc.name)
			}
			// Second execution settles result-array capacity.
			if _, ex, err := d.QuerySwole(tc.q); err != nil {
				t.Fatal(err)
			} else if !ex.PlanCached {
				t.Fatalf("workers=%d %s: second execution missed the plan cache", workers, tc.name)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := d.QuerySwole(tc.q); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("workers=%d %s: %.1f allocs per cached execution, want 0", workers, tc.name, allocs)
			}
		}
	}
}

// TestSetPartitionModeClearsPlanCache checks mode changes invalidate
// prepared plans, which bake the decision in.
func TestSetPartitionModeClearsPlanCache(t *testing.T) {
	d := steadyTestDB(t)
	defer d.Close()
	q := partitionQueries[0].q
	if _, ex, err := d.QuerySwole(q); err != nil {
		t.Fatal(err)
	} else if ex.Partitioned {
		t.Fatal("128-group micro table partitioned under Auto")
	}
	if d.PlanCacheLen() == 0 {
		t.Fatal("plan cache empty after first execution")
	}
	d.SetPartitionMode(PartitionOn)
	if d.PlanCacheLen() != 0 {
		t.Fatal("SetPartitionMode kept stale plans")
	}
	if _, ex, err := d.QuerySwole(q); err != nil {
		t.Fatal(err)
	} else if !ex.Partitioned {
		t.Fatal("forced mode did not re-plan partitioned")
	}
}
