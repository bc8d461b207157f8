package swole

import (
	"strconv"
	"testing"
)

// BenchmarkAblation_GroupTableForm runs one filtered group-by sum two ways
// at each of three key domains, one worker: into the key-addressed table (the
// dense key r_c) and into one hashed table (the sparse twin sp_k, same groups
// and rows). Each row also reports what the cost model predicted for its way
// when it compiled the dense statement (Explain.Costs, in millions of cost
// units), so the predicted order sits next to the measured one
// (EXPERIMENTS.md).
func BenchmarkAblation_GroupTableForm(b *testing.B) {
	for _, groups := range []int{100, 100_000, 1_000_000} {
		d := sparseKeyDB(b, rows1M, groups)
		dense := "select r_c, sum(r_a) from r where r_x < 50 group by r_c"
		d.SetWorkers(1)
		_, predicted, err := d.QuerySwole(dense)
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range []struct{ name, q string }{{"dense", dense}, {"hashed", sparseKeyQuery}} {
			b.Run(form.name+"/groups"+strconv.Itoa(groups), func(b *testing.B) {
				d.SetWorkers(1)
				defer d.SetWorkers(0)
				_, ex, err := d.QuerySwole(form.q)
				if err != nil {
					b.Fatal(err)
				}
				if (ex.DenseDomain > 0) != (form.name == "dense") {
					b.Fatalf("DenseDomain=%d on the %s row", ex.DenseDomain, form.name)
				}
				benchSteady(b, d, form.q)
				b.ReportMetric(predicted.Costs[form.name]/1e6, "predicted-Mcost")
			})
		}
	}
}
