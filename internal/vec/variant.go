package vec

import "fmt"

// Per-tile mask-density classes and the counters of which kernels ran. Ross
// (PODS 2002) makes branch vs no-branch selection a selectivity question;
// SelFromCmpAdaptive branches on no lane, so the class picks no loop and is
// only reported: into Counters, whose tally the benchmark's
// vec.dense_tile_ratio reads. SelFromCmpAdaptive keeps its name because the
// benchmark's kernel ladder calls it. See DESIGN.md §11.

// Density classifies a tile's comparison vector by how many lanes are set.
type Density uint8

// Density classes: where a per-lane selection branch would be predictable
// (Sparse, Dense) and where it would mispredict (Mid). They are reported only.
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

// classifyDensity buckets a tile with ones set lanes out of n. The 1/16
// thresholds put the boundary where a branching loop's misprediction rate
// would stay under ~6%, matching the knees in Ross's figure 3.
func classifyDensity(ones, n int) Density {
	switch {
	case ones*16 <= n:
		return DensitySparse
	case (n-ones)*16 <= n:
		return DensityDense
	default:
		return DensityMid
	}
}

// Counters tallies what varies tile by tile (the fold loop is fixed per
// plan: core's Explain.Kernel). It is a fixed-size value type so each worker
// embeds one and the run merges them without allocating; the totals surface
// in Explain. Width-indexed arrays use the storage widths in order int8,
// int16, int32, int64.
type Counters struct {
	SelSparse uint64 // selection tiles over a sparse mask
	SelMid    uint64 // selection tiles over a mid-density mask
	SelDense  uint64 // selection tiles over a dense mask

	Cmp   [4]uint64 // cmp-prepass tiles by native lane width
	Widen [4]uint64 // key/value widen tiles by native lane width

	DictKeys uint64 // tiles whose keys came dict-coded (narrow codes)
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
// cmp/widen tiles by lane width (w8..w64), then the dict tally.
func (c *Counters) String() string {
	return fmt.Sprintf("sel=%d/%d/%d cmp=%v widen=%v dict=%d",
		c.SelSparse, c.SelMid, c.SelDense, c.Cmp, c.Widen, c.DictKeys)
}

// Total returns the total number of variant decisions recorded, used to
// tell "no counters collected" apart from "all zero".
func (c *Counters) Total() uint64 {
	t := c.SelSparse + c.SelMid + c.SelDense + c.DictKeys
	for i := range c.Cmp {
		t += c.Cmp[i] + c.Widen[i]
	}
	return t
}
