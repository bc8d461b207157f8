// Package harness regenerates the measured experiments of the paper's
// evaluation: Figure 6 (TPC-H) and Figures 8-12 (microbenchmarks). Each
// figure function returns a structured result that the CLI renders as the
// same rows/series the paper plots, and that EXPERIMENTS.md's shape checks
// consume. Every series the engine can run is timed on the engine's own
// plan (figures.go); the rest are internal/micro's and internal/tpch's
// hand-written kernels.
//
// Scales are configurable because the paper's hardware (SF 10, 100M-row R,
// 256 GB RAM) exceeds this environment; defaults preserve the regimes (see
// DESIGN.md substitution 5). Environment variables:
//
//	SWOLE_SF       TPC-H scale factor       (default 0.1)
//	SWOLE_MICRO_R  microbenchmark R rows    (default 2000000)
//	SWOLE_REPS     timing repetitions       (default 3)
package harness

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Config scales the experiments.
type Config struct {
	SF     float64 // TPC-H scale factor
	MicroR int     // rows in the microbenchmark's R
	Reps   int     // repetitions; the minimum time is reported
}

// Default returns the laptop-scale defaults.
func Default() Config {
	return Config{SF: 0.1, MicroR: 2_000_000, Reps: 3}
}

// FromEnv reads overrides from the environment.
func FromEnv() Config {
	cfg := Default()
	if v := os.Getenv("SWOLE_SF"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			cfg.SF = f
		}
	}
	if v := os.Getenv("SWOLE_MICRO_R"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			cfg.MicroR = n
		}
	}
	if v := os.Getenv("SWOLE_REPS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			cfg.Reps = n
		}
	}
	return cfg
}

// timeBest runs fn cfg.Reps times and returns the minimum duration; the
// value returned by fn is accumulated into sink to defeat dead-code
// elimination. A GC runs before each repetition so one strategy's heap
// debris does not tax the next strategy's measurement.
func (cfg Config) timeBest(fn func() int64) time.Duration {
	best := time.Duration(1 << 62)
	for r := 0; r < cfg.Reps; r++ {
		runtime.GC()
		start := time.Now()
		sink += fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

var sink int64

// Point is one measurement of a series.
type Point struct {
	X       float64
	Runtime time.Duration
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a rendered experiment.
type Figure struct {
	ID     string // e.g. "fig8a"
	Title  string
	XLabel string
	Series []Series
}

// Format renders the figure as an aligned text table: one row per X value,
// one column per series.
func (f Figure) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n", f.ID, f.Title)
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	fmt.Fprintf(&sb, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, " %16s", s.Name)
	}
	sb.WriteByte('\n')
	lookup := func(s Series, x float64) string {
		for _, p := range s.Points {
			if p.X == x {
				return fmtDur(p.Runtime)
			}
		}
		return "-"
	}
	for _, x := range sorted {
		fmt.Fprintf(&sb, "%-12g", x)
		for _, s := range f.Series {
			fmt.Fprintf(&sb, " %16s", lookup(s, x))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// CSV renders the figure as comma-separated values (one row per X, one
// column per series, runtimes in milliseconds) for external plotting.
func (f Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("x")
	for _, s := range f.Series {
		sb.WriteString("," + s.Name)
	}
	sb.WriteByte('\n')
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		fmt.Fprintf(&sb, "%g", x)
		for _, s := range f.Series {
			val := ""
			for _, p := range s.Points {
				if p.X == x {
					val = fmt.Sprintf("%.3f", float64(p.Runtime.Microseconds())/1000)
				}
			}
			sb.WriteString("," + val)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SeriesByName returns the named series, or nil.
func (f Figure) SeriesByName(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// defaultSels is the selectivity sweep of the paper's x-axes.
func defaultSels() []int { return []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100} }
