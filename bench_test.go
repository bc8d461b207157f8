package swole

// Benchmarks regenerating every measured experiment in the paper, one
// family per figure:
//
//	BenchmarkFig6_TPCH      - Figure 6, eight TPC-H queries x strategies
//	BenchmarkFig8_MicroQ1   - Figure 8, value masking (OP in {mul, div})
//	BenchmarkFig9_MicroQ2   - Figure 9, key masking (group cardinalities)
//	BenchmarkFig10_MicroQ3  - Figure 10, access merging
//	BenchmarkFig11_MicroQ4  - Figure 11, positional bitmaps
//	BenchmarkFig12_MicroQ5  - Figure 12, eager aggregation
//
// The micro families run the series table internal/harness defines for its
// figures (harness.Config.MicroPanels), at the paper's key selectivities;
// Figure 6 runs tpch.Data.Prepare's runners. Either way a point is prepared
// before its timer starts. Benchmarks use laptop-scale defaults
// (SWOLE_BENCH_SF, SWOLE_BENCH_R to override); cmd/swolebench runs the full
// selectivity sweeps and prints the paper-format series.

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/reprolab/swole/internal/harness"
	"github.com/reprolab/swole/internal/tpch"
)

func benchSF() float64 {
	if v := os.Getenv("SWOLE_BENCH_SF"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.02
}

func benchR() int {
	if v := os.Getenv("SWOLE_BENCH_R"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1_000_000
}

var (
	tpchOnce sync.Once
	tpchData *tpch.Data
)

func getTPCH(b *testing.B) *tpch.Data {
	b.Helper()
	tpchOnce.Do(func() { tpchData = tpch.Generate(benchSF()) })
	return tpchData
}

var benchSink int64

// BenchmarkFig6_TPCH regenerates the paper's Figure 6 (TPC-H, SF 10 in
// the paper): every query under volcano (HyPer-substitute sanity check),
// data-centric, hybrid, and SWOLE.
func BenchmarkFig6_TPCH(b *testing.B) {
	d := getTPCH(b)
	for _, q := range tpch.Queries {
		for _, s := range tpch.Strategies {
			b.Run(q.String()+"/"+s.String(), func(b *testing.B) {
				run, err := d.Prepare(q, s)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows, _, err := run()
					if err != nil {
						b.Fatal(err)
					}
					benchSink += int64(len(rows))
				}
			})
		}
	}
}

// benchFigure runs every series of every panel of micro figure fig at the
// given selectivities.
func benchFigure(b *testing.B, fig int, sels ...int) {
	for _, p := range (harness.Config{MicroR: benchR()}).MicroPanels(fig) {
		for _, s := range p.Series {
			for _, sel := range sels {
				b.Run(p.ID+"/"+s.Name+"/sel"+strconv.Itoa(sel), func(b *testing.B) {
					run := s.Prepare(sel)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						benchSink += run().Sink()
					}
				})
			}
		}
	}
}

// BenchmarkFig8_MicroQ1 regenerates Figure 8 (value masking) at the
// paper's key selectivities: low, the data-centric misprediction peak,
// and high.
func BenchmarkFig8_MicroQ1(b *testing.B) { benchFigure(b, 8, 10, 50, 90) }

// BenchmarkFig9_MicroQ2 regenerates Figure 9 (key masking) across hash
// table cache classes.
func BenchmarkFig9_MicroQ2(b *testing.B) { benchFigure(b, 9, 10, 50, 90) }

// BenchmarkFig10_MicroQ3 regenerates Figure 10 (access merging) for both
// reuse configurations.
func BenchmarkFig10_MicroQ3(b *testing.B) { benchFigure(b, 10, 50) }

// BenchmarkFig11_MicroQ4 regenerates Figure 11 (positional bitmaps): each
// panel fixes one side at 10% or 90% and runs the other at 50%.
func BenchmarkFig11_MicroQ4(b *testing.B) { benchFigure(b, 11, 50) }

// BenchmarkFig12_MicroQ5 regenerates Figure 12 (eager aggregation) for
// small and large build sides.
func BenchmarkFig12_MicroQ5(b *testing.B) { benchFigure(b, 12, 10, 50, 90) }
