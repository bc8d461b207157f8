package main

import (
	"testing"
	"time"
)

// TestHistQuantilesUniform checks the quantile math against a known
// distribution: 1..10000µs uniform, where the q-quantile is q·10000µs.
// The log-linear layout guarantees ≤ 2^-subBits relative error, and the
// upper-edge convention only ever rounds up, so the reported quantile
// must sit in [exact, exact·(1+2^-subBits)] within a bucket's grain.
func TestHistQuantilesUniform(t *testing.T) {
	var h Hist
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if h.Min() != time.Microsecond || h.Max() != n*time.Microsecond {
		t.Fatalf("Min/Max = %v/%v, want 1µs/%v", h.Min(), h.Max(), n*time.Microsecond)
	}
	if mean, want := h.Mean(), time.Duration(n+1)*time.Microsecond/2; mean != want {
		t.Fatalf("Mean = %v, want %v", mean, want)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := time.Duration(q*float64(n)) * time.Microsecond
		got := h.Quantile(q)
		hi := exact + exact/(1<<subBits) + time.Microsecond
		if got < exact-time.Microsecond || got > hi {
			t.Errorf("Quantile(%g) = %v, want within [%v, %v]", q, got, exact, hi)
		}
	}
	if h.Quantile(0) != h.Min() {
		t.Errorf("Quantile(0) = %v, want min %v", h.Quantile(0), h.Min())
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("Quantile(1) = %v, want max %v", h.Quantile(1), h.Max())
	}
}

// TestHistBucketRoundTrip property-checks the index math: every value
// lands in a bucket whose upper edge is ≥ the value and within the
// promised relative error, and bucket indices are monotone in the value.
func TestHistBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 12345,
		1 << 20, 1<<20 + 1, 1 << 40, (1 << 62) + 12345}
	prev := -1
	for _, v := range vals {
		idx := bucketOf(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		if idx < prev {
			t.Fatalf("bucketOf not monotone at %d", v)
		}
		prev = idx
		ub := bucketMax(idx)
		if ub < v {
			t.Errorf("bucketMax(bucketOf(%d)) = %d < value", v, ub)
		}
		if v >= subCount && float64(ub-v) > float64(v)/float64(subCount) {
			t.Errorf("value %d: upper edge %d overshoots by more than 1/%d", v, ub, subCount)
		}
	}
}

// TestHistMerge checks that merging split recordings equals recording
// everything into one histogram.
func TestHistMerge(t *testing.T) {
	var whole, a, b Hist
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i*i) * time.Microsecond
		whole.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Min() != whole.Min() || a.Max() != whole.Max() || a.Mean() != whole.Mean() {
		t.Fatalf("merged summary diverges: count %d/%d min %v/%v max %v/%v",
			a.Count(), whole.Count(), a.Min(), whole.Min(), a.Max(), whole.Max())
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("Quantile(%g): merged %v, whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

// TestHistEmptyAndClamp covers the degenerate paths: the empty histogram
// reports zeros, and a negative duration clamps instead of corrupting
// the index.
func TestHistEmptyAndClamp(t *testing.T) {
	var h Hist
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram reports nonzero summary")
	}
	h.Record(-time.Second)
	if h.Count() != 1 || h.Max() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative record: count=%d max=%v", h.Count(), h.Max())
	}
}
