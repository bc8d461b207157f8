package vec

import "fmt"

// This file implements the adaptive parts of the kernel-variant layer:
// per-tile mask-density classification and the counters that record which
// specialized variant actually ran. Ross (PODS 2002) shows branch vs
// no-branch selection build is a selectivity question; instead of deciding
// once per query from sampled selectivity, the adaptive kernels decide per
// tile from a cheap popcount, so skewed columns get the right loop on every
// tile. See DESIGN.md §11.

// Density classifies a tile's comparison vector by how many lanes are set.
type Density uint8

// Density classes. Sparse and Dense masks make the selection branch
// predictable, so the branching loop wins there; Mid-density masks
// mispredict, so the predicated no-branch loop wins.
const (
	DensitySparse Density = iota // ≤ 1/16 of lanes set
	DensityMid                   // in between: mispredict territory
	DensityDense                 // ≥ 15/16 of lanes set
)

// String returns the class name.
func (d Density) String() string {
	switch d {
	case DensitySparse:
		return "sparse"
	case DensityDense:
		return "dense"
	}
	return "mid"
}

// ClassifyDensity buckets a tile with ones set lanes out of n. The 1/16
// thresholds put the crossover where the branchy loop's misprediction rate
// stays under ~6%, matching the knees in Ross's figure 3.
func ClassifyDensity(ones, n int) Density {
	switch {
	case ones*16 <= n:
		return DensitySparse
	case (n-ones)*16 <= n:
		return DensityDense
	default:
		return DensityMid
	}
}

// SelFromCmpAdaptive builds a selection vector from cmp, picking the
// branching or predicated loop per tile from a popcount of the mask. It
// returns the selection count and the density class it chose (callers
// tally the class into Counters).
func SelFromCmpAdaptive(cmp []byte, sel []int32) (int, Density) {
	ones := CountOnes(cmp)
	d := ClassifyDensity(ones, len(cmp))
	if d == DensityMid {
		return SelFromCmpNoBranch(cmp, sel), d
	}
	return SelFromCmpBranch(cmp, sel), d
}

// Counters tallies per-tile kernel-variant choices. It is a fixed-size
// value type so plan husks can embed one per worker and merge them without
// allocating; the totals surface in Explain and in swolebench
// -kernel-variants. Width-indexed arrays use the storage widths in order
// int8, int16, int32, int64.
type Counters struct {
	SelSparse uint64 // selection tiles built with the branching loop (sparse mask)
	SelMid    uint64 // selection tiles built with the predicated no-branch loop
	SelDense  uint64 // selection tiles built with the branching loop (dense mask)

	Cmp   [4]uint64 // cmp-prepass tiles by native lane width
	Widen [4]uint64 // key/value widen tiles by native lane width

	DictKeys  uint64 // tiles whose keys came dict-coded (narrow codes)
	MaskedAgg uint64 // unrolled masked-aggregation tiles
	KeyMask   uint64 // unrolled masked key-materialization tiles
}

// Add accumulates o into c; used to merge per-worker counters at the end
// of a run.
func (c *Counters) Add(o *Counters) {
	c.SelSparse += o.SelSparse
	c.SelMid += o.SelMid
	c.SelDense += o.SelDense
	for i := range c.Cmp {
		c.Cmp[i] += o.Cmp[i]
		c.Widen[i] += o.Widen[i]
	}
	c.DictKeys += o.DictKeys
	c.MaskedAgg += o.MaskedAgg
	c.KeyMask += o.KeyMask
}

// Reset zeroes the counters in place.
func (c *Counters) Reset() { *c = Counters{} }

// CountSel tallies one selection-build tile of the given density class.
func (c *Counters) CountSel(d Density) {
	switch d {
	case DensitySparse:
		c.SelSparse++
	case DensityDense:
		c.SelDense++
	default:
		c.SelMid++
	}
}

// String renders the counters compactly: selection tiles by density class,
// cmp/widen tiles by lane width (w8..w64), then the dict and masked
// tallies.
func (c *Counters) String() string {
	return fmt.Sprintf("sel=%d/%d/%d cmp=%v widen=%v dict=%d vmask=%d kmask=%d",
		c.SelSparse, c.SelMid, c.SelDense, c.Cmp, c.Widen,
		c.DictKeys, c.MaskedAgg, c.KeyMask)
}

// Total returns the total number of variant decisions recorded, used to
// tell "no counters collected" apart from "all zero".
func (c *Counters) Total() uint64 {
	t := c.SelSparse + c.SelMid + c.SelDense +
		c.DictKeys + c.MaskedAgg + c.KeyMask
	for i := range c.Cmp {
		t += c.Cmp[i] + c.Widen[i]
	}
	return t
}
