package micro

import (
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/vec"
)

// Micro Q5 (Figure 12): select r_fk, sum(r_a * r_b) from R, S
//                       where r_fk = s_pk and s_x < [SEL]
//                       group by r_fk
//
// The join key doubles as the group-by key, so this is a groupjoin
// (Section III-E). The predicate sits on S only — the paper's declared
// worst case for eager aggregation, which must aggregate *all* of R before
// deleting the groups whose S tuple fails the predicate. Eager aggregation
// is the engine's plan (internal/harness); the hash-join baselines are
// hand-written here.

// Q5DataCentric is the traditional groupjoin: build a hash table of
// qualifying s_pk keys, then probe per R tuple and aggregate on match.
func Q5DataCentric(d *Data, sel int) *ht.AggTable {
	tab := ht.NewAggTable(1, d.Cfg.NS)
	c := int8(sel)
	for i := range d.SX {
		if d.SX[i] < c {
			// Insert the group without marking it valid: a key with no
			// probe match must not appear in the (inner) result.
			tab.Lookup(int64(d.SPK[i]))
		}
	}
	for i := range d.FK {
		s := tab.Find(int64(d.FK[i]))
		if s >= 0 {
			tab.Add(s, 0, int64(d.A[i])*int64(d.B[i]))
		}
	}
	return tab
}

// Q5Hybrid adds the prepass and selection vectors to the groupjoin; the
// probe side has no predicate, so its only change from data-centric is the
// tiled structure.
func Q5Hybrid(d *Data, sel int) *ht.AggTable {
	tab := ht.NewAggTable(1, d.Cfg.NS)
	var cmp [vec.TileSize]byte
	var idx [vec.TileSize]int32
	vec.Tiles(len(d.SX), func(base, length int) {
		vec.CmpConstLTU(d.SX[base:base+length], int8(sel), cmp[:])
		n := vec.SelFromCmpNoBranch(cmp[:length], idx[:])
		pk := d.SPK[base : base+length]
		for j := 0; j < n; j++ {
			// Insert without marking valid; see Q5DataCentric.
			tab.Lookup(int64(pk[idx[j]]))
		}
	})
	vec.Tiles(len(d.FK), func(base, length int) {
		fk := d.FK[base : base+length]
		a := d.A[base : base+length]
		b := d.B[base : base+length]
		for j := 0; j < length; j++ {
			s := tab.Find(int64(fk[j]))
			if s >= 0 {
				tab.Add(s, 0, int64(a[j])*int64(b[j]))
			}
		}
	})
	return tab
}
