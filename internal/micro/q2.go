package micro

import "github.com/reprolab/swole/internal/ht"

// Micro Q2 (Figure 9): select r_c, sum(r_a * r_b) from R
//                      where r_x < [SEL] and r_y = 1 group by r_c
//
// The group-by key cardinality |r_c| sweeps the hash table through the
// cache hierarchy (10, 1K, 100K, 10M in the paper), which is what
// separates value masking from key masking (Section III-B). Hybrid, value
// masking and key masking are the engine's own plans (internal/harness);
// the data-centric baseline is hand-written here.

// Q2DataCentric branches per tuple and probes the hash table only for
// selected tuples.
func Q2DataCentric(d *Data, sel int) *ht.AggTable {
	tab := ht.NewAggTable(1, d.Cfg.CCard)
	c := int8(sel)
	for i := range d.X {
		if d.X[i] < c && d.Y[i] == 1 {
			s := tab.Lookup(int64(d.C[i]))
			tab.Add(s, 0, int64(d.A[i])*int64(d.B[i]))
		}
	}
	return tab
}

// AggToMap converts an AggTable's valid groups to a map for verification.
func AggToMap(tab *ht.AggTable) map[int64]int64 {
	out := make(map[int64]int64, tab.Len())
	tab.ForEach(func(key int64, slot int) {
		out[key] = tab.Acc(slot, 0)
	})
	return out
}
