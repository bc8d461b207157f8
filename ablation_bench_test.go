package swole

// Ablation benchmarks pricing the individual design choices DESIGN.md
// calls out:
//
//	BenchmarkAblation_SelectionVector  - branching vs no-branch (Ross 2002)
//	BenchmarkAblation_MaskingBookkeeping - validity flags' overhead
//	BenchmarkAblation_EagerDeletion    - the EA deletion pass alone
//	BenchmarkAblation_GroupTableForm   - key-addressed vs hashed vs radix

import (
	"strconv"
	"testing"

	"github.com/reprolab/swole/internal/micro"
)

// BenchmarkAblation_SelectionVector compares branching and predicated
// selection-vector construction across selectivities: branching wins at
// the predictable extremes, no-branch at intermediate selectivities.
func BenchmarkAblation_SelectionVector(b *testing.B) {
	d := getMicro(b, 1000, 1000)
	for _, sel := range []int{1, 50, 99} {
		b.Run("nobranch/sel"+strconv.Itoa(sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += micro.Q1Hybrid(d, micro.OpMul, sel)
			}
		})
		b.Run("branch/sel"+strconv.Itoa(sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += micro.Q1HybridBranching(d, micro.OpMul, sel)
			}
		})
	}
}

// BenchmarkAblation_MaskingBookkeeping prices the validity-flag
// bookkeeping value masking needs for group-by correctness.
func BenchmarkAblation_MaskingBookkeeping(b *testing.B) {
	d := getMicro(b, 1000, 1000)
	b.Run("with-flags", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int64(micro.Q2ValueMasking(d, 50).Len())
		}
	})
	b.Run("without-flags", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int64(len(micro.Q2ValueMaskingNoFlags(d, 50)))
		}
	})
}

// BenchmarkAblation_EagerDeletion isolates the deletion pass of eager
// aggregation (the second term of the Section III-E cost model).
func BenchmarkAblation_EagerDeletion(b *testing.B) {
	d := getMicro(b, 1000, 1000)
	b.Run("aggregate-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int64(len(micro.Q5EagerNoDelete(d)))
		}
	})
	for _, sel := range []int{10, 90} {
		b.Run("with-deletion/sel"+strconv.Itoa(sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += int64(micro.Q5EagerAggregation(d, sel).Len())
			}
		})
	}
}

// BenchmarkAblation_GroupTableForm runs one filtered group-by sum three
// ways at each of three key domains, one worker: into the key-addressed
// table (the dense key r_c), into one hashed table (the sparse twin sp_k,
// same groups and rows, partitioning off) and through the radix path (sp_k,
// partitioning forced). Each row also reports what the cost model predicted
// for its way when it compiled the dense statement (Explain.Costs, in
// millions of cost units), so the predicted order sits next to the measured
// one (EXPERIMENTS.md).
func BenchmarkAblation_GroupTableForm(b *testing.B) {
	for _, groups := range []int{100, 100_000, 1_000_000} {
		d := sparseKeyDB(b, radixRows, groups)
		dense := "select r_c, sum(r_a) from r where r_x < 50 group by r_c"
		sparse := "select sp_k, sum(sp_a) from sp where sp_x < 50 group by sp_k"
		d.SetWorkers(1)
		_, predicted, err := d.QuerySwole(dense)
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range []struct {
			name, q string
			mode    PartitionMode
		}{
			{"dense", dense, PartitionOff},
			{"hashed", sparse, PartitionOff},
			{"partitioned", sparse, PartitionOn},
		} {
			b.Run(form.name+"/groups"+strconv.Itoa(groups), func(b *testing.B) {
				d.SetPartitionMode(form.mode)
				d.SetWorkers(1)
				defer d.SetPartitionMode(PartitionAuto)
				defer d.SetWorkers(0)
				_, ex, err := d.QuerySwole(form.q)
				if err != nil {
					b.Fatal(err)
				}
				if (ex.DenseDomain > 0) != (form.name == "dense") || ex.Partitioned != (form.name == "partitioned") {
					b.Fatalf("DenseDomain=%d Partitioned=%v on the %s row", ex.DenseDomain, ex.Partitioned, form.name)
				}
				benchSteady(b, d, form.q)
				b.ReportMetric(predicted.Costs[form.name]/1e6, "predicted-Mcost")
			})
		}
	}
}
