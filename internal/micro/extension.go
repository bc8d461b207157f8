package micro

import (
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/vec"
)

// This file implements the equijoin extension of eager aggregation that
// the paper sketches at the end of Section III-E: "the techniques can
// similarly be applied to equijoins with a few simple extensions. The
// basic idea is to again reorder the traditional build and probe sides of
// the join, performing a partial aggregation on the new build side grouped
// by the join key. Then, for all matches on the new probe side, we perform
// the final aggregation step with the actual group-by key."
//
// Extension query (micro QX):
//
//	select r_c, sum(r_a * r_b) from R, S
//	where r_fk = s_pk and s_x < [SEL]
//	group by r_c
//
// Unlike micro Q5, the group-by key (r_c) differs from the join key
// (r_fk), so the groupjoin operator does not apply directly.

// packFkC packs the (join key, group key) pair into one 64-bit partial
// aggregation key.
func packFkC(fk, c int32) int64 { return int64(fk)<<32 | int64(uint32(c)) }

// QXGroupjoinStyle is the traditional plan: build a hash set of
// qualifying S keys, probe per R tuple, and aggregate matching tuples by
// r_c — conditional accesses on both the probe and the aggregation.
func QXGroupjoinStyle(d *Data, sel int) *ht.AggTable {
	qual := ht.NewSetTable(d.Cfg.NS)
	c := int8(sel)
	for i := range d.SX {
		if d.SX[i] < c {
			qual.Insert(int64(d.SPK[i]))
		}
	}
	tab := ht.NewAggTable(1, d.Cfg.CCard)
	for i := range d.FK {
		if qual.Contains(int64(d.FK[i])) {
			s := tab.Lookup(int64(d.C[i]))
			tab.Add(s, 0, int64(d.A[i])*int64(d.B[i]))
		}
	}
	return tab
}

// QXEagerAggregation is the extension: R is partially aggregated
// unconditionally, grouped by the (join key, group key) pair — a purely
// sequential scan of R. The second phase scans S sequentially, and only
// partial groups whose join key qualifies are folded into the final
// per-r_c table. Wasted work: partial groups for join keys that S later
// rejects.
func QXEagerAggregation(d *Data, sel int) *ht.AggTable {
	partial := ht.NewAggTable(1, d.Cfg.NS*2)
	vec.Tiles(len(d.FK), func(base, length int) {
		fk := d.FK[base : base+length]
		cc := d.C[base : base+length]
		a := d.A[base : base+length]
		b := d.B[base : base+length]
		for j := 0; j < length; j++ {
			s := partial.Lookup(packFkC(fk[j], cc[j]))
			partial.Add(s, 0, int64(a[j])*int64(b[j]))
		}
	})
	// Qualification table over S positions (sequential build; S's dense
	// primary key is the position).
	c := int8(sel)
	qual := make([]byte, d.Cfg.NS)
	for i := range d.SX {
		qual[i] = b2i(d.SX[i] < c)
	}
	final := ht.NewAggTable(1, d.Cfg.CCard)
	partial.ForEach(func(key int64, slot int) {
		fk := key >> 32
		if qual[fk] == 1 {
			s := final.Lookup(int64(int32(uint32(key))))
			final.Add(s, 0, partial.Acc(slot, 0))
		}
	})
	return final
}
