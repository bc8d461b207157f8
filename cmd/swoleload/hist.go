package main

import (
	"math/bits"
	"time"
)

// Hist is an HDR-style log-linear histogram of durations, recorded in
// nanoseconds. Each power-of-two magnitude is cut into 2^subBits linear
// sub-buckets, so the relative quantile error is bounded by 2^-subBits
// (~3%) at every scale from nanoseconds to hours — unlike fixed bucket
// ladders, no prior guess about the latency range is needed. Recording is
// an increment at a computed index; the struct is not goroutine-safe (the
// driver gives each connection its own Hist and Merges at the end).
type Hist struct {
	counts [histBuckets]uint64
	total  uint64
	sum    int64
	min    int64
	max    int64
}

const (
	subBits     = 5 // 32 sub-buckets per magnitude → ≤ ~3% relative error
	subCount    = 1 << subBits
	histBuckets = (64 - subBits) * subCount
)

// bucketOf maps a non-negative nanosecond value to its bucket index.
// Values below subCount map exactly; above, the top subBits bits after the
// leading one select the linear sub-bucket within the magnitude.
func bucketOf(v int64) int {
	if v < subCount {
		return int(v)
	}
	top := bits.Len64(uint64(v)) - 1
	group := top - subBits + 1
	sub := int(v>>(top-subBits)) - subCount
	return group*subCount + sub
}

// bucketMax is the largest value mapping to bucket idx — the conservative
// (upper-edge) representative a quantile reports.
func bucketMax(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	group := idx/subCount - 1
	sub := idx % subCount
	return (int64(subCount+sub+1) << group) - 1
}

// Record adds one observation. Negative durations clamp to zero (the
// clock went backwards; count it, don't corrupt the index math).
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
	h.sum += v
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	if o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Count reports the number of recorded observations.
func (h *Hist) Count() uint64 { return h.total }

// Min and Max report the exact extremes (not bucket edges).
func (h *Hist) Min() time.Duration { return time.Duration(h.min) }
func (h *Hist) Max() time.Duration { return time.Duration(h.max) }

// Mean reports the exact arithmetic mean.
func (h *Hist) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.total))
}

// Quantile reports the q-quantile (q in [0, 1]) as the upper edge of the
// bucket holding the q·count-th observation, clamped to the exact max so
// Quantile(1) is the true maximum.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total))
	if rank > 0 {
		rank-- // 1-based rank of the target observation
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := bucketMax(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}
