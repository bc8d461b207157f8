package cost

import (
	"math/rand"
	"time"
)

// Calibrate measures the host's access primitives and returns Params scaled
// so that ReadSeq is 1.0 (only relative magnitudes matter to the models).
// The cache sizes are kept from Default unless the caller overrides them;
// measuring cache geometry portably is out of scope, and the latency curve
// below captures the behaviour the models need.
//
// Calibration is optional: the deterministic defaults reproduce the paper's
// decisions, and all tests use them. Calibrate exists so the library can
// adapt to hosts with very different memory systems.
func Calibrate() Params {
	p := Default()

	const n = 1 << 20 // 1M elements = 8 MB, past L2 on everything modern
	data := make([]int64, n)
	rng := rand.New(rand.NewSource(42))
	for i := range data {
		data[i] = int64(rng.Intn(1000))
	}

	// Sequential read baseline.
	seq := timePerOp(func() {
		var s int64
		for _, v := range data {
			s += v
		}
		sink = s
	}, n)

	// Dependent random access over the same footprint (pointer chase).
	perm := rng.Perm(n)
	next := make([]int32, n)
	for i := 0; i < n-1; i++ {
		next[perm[i]] = int32(perm[i+1])
	}
	next[perm[n-1]] = int32(perm[0])
	random := timePerOp(func() {
		i := int32(0)
		for k := 0; k < n; k++ {
			i = next[i]
		}
		sink = int64(i)
	}, n)

	// Small-footprint random access (cached structure).
	small := make([]int32, 4096)
	for i := range small {
		small[i] = int32(rng.Intn(4096))
	}
	cached := timePerOp(func() {
		i := int32(0)
		for k := 0; k < n; k++ {
			i = small[i&4095] + int32(k&1)
		}
		sink = int64(i)
	}, n)

	// Independent random reads: unlike the dependent chase above, the
	// out-of-order window overlaps these misses, so the per-op time is the
	// probe stream's *bandwidth* demand rather than a single miss latency —
	// exactly the quantity ProbeMul prices under ForWorkers.
	idxs := make([]int32, n)
	for i := range idxs {
		idxs[i] = int32(rng.Intn(n))
	}
	probe := timePerOp(func() {
		var s int64
		for _, i := range idxs {
			s += data[i]
		}
		sink = s
	}, n)

	// Arithmetic costs.
	mul := timePerOp(func() {
		var s int64 = 1
		for _, v := range data {
			s += v * 3
		}
		sink = s
	}, n) - seq
	div := timePerOp(func() {
		var s int64
		for _, v := range data {
			s += v / 7
		}
		sink = s
	}, n) - seq

	scale := 1.0 / seq
	p.ReadSeq = 1.0
	p.HitMem = random * scale
	p.HitL1 = clampMin(cached*scale, 1)
	p.HitL2 = interp(p.HitL1, p.HitMem, 0.15)
	p.HitLLC = interp(p.HitL1, p.HitMem, 0.4)
	p.HTNull = p.HitL1
	p.ReadCond = interp(p.HitL1, p.HitMem, 0.05)
	p.CompMul = clampMin(mul*scale, 0.5)
	p.CompDiv = clampMin(div*scale, 2)
	// The bandwidth-demand ratio for ForWorkers' saturation term, per-op
	// time relative to the sequential baseline. Clamped to a sane range: a
	// probe can't demand less bus than a stream, and past ~8x the latency
	// hiding has failed and the chase measurement (HitMem) governs anyway.
	p.ProbeMul = clampRange(probe*scale, 1, 8)
	return p
}

// sink defeats dead-code elimination in the calibration loops.
var sink int64

func timePerOp(f func(), ops int) float64 {
	f() // warm
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(ops)
}

func clampMin(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

func clampRange(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func interp(lo, hi, t float64) float64 { return lo + (hi-lo)*t }
