package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// windowRefs returns, for each of n passes, the reference duration that
// corrects it: the median of the reference samples taken inside the
// window of passes [i-radius, i+radius]. refs has n+1 samples: refs[i]
// was taken just before pass i and refs[i+1] just after it.
func windowRefs(refs []float64, radius int) []float64 {
	n := len(refs) - 1
	out := make([]float64, n)
	for i := range out {
		lo, hi := i-radius, i+radius+1
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		out[i] = median(refs[lo : hi+1])
	}
	return out
}

// correct rescales raw durations to the reference host: raw × refMS / c.
func correct(raw, refs []float64, radius int) []float64 {
	c := windowRefs(refs, radius)
	out := make([]float64, len(raw))
	for i, r := range raw {
		out[i] = r * refMS / c[i]
	}
	return out
}

// correctOne rescales one duration by the samples that bracket it.
func correctOne(raw float64, bracket ...float64) float64 {
	return raw * refMS / median(bracket)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}
