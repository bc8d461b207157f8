package cost

import "testing"

// compMulAgg is the computation cost of sum(r_a * r_b): one multiply plus
// one accumulate.
func compMulAgg(p Params) float64 { return p.CompMul + p.CompAdd }

// compDivAgg is the computation cost of sum(r_a / r_b).
func compDivAgg(p Params) float64 { return p.CompDiv + p.CompAdd }

func TestHTLookupCacheClasses(t *testing.T) {
	p := Default()
	if p.HTLookup(1<<10) != p.HitL1 {
		t.Error("1KB should be L1")
	}
	if p.HTLookup(100<<10) != p.HitL2 {
		t.Error("100KB should be L2")
	}
	if p.HTLookup(10<<20) != p.HitLLC {
		t.Error("10MB should be LLC")
	}
	if p.HTLookup(100<<20) != p.HitMem {
		t.Error("100MB should be memory")
	}
	if !(p.HitL1 < p.HitL2 && p.HitL2 < p.HitLLC && p.HitLLC < p.HitMem) {
		t.Error("latencies must increase down the hierarchy")
	}
}

func TestValueMaskingFlatAcrossSelectivity(t *testing.T) {
	// Paper Fig 8: "our value masking technique exhibits a constant
	// runtime across the entire selectivity range".
	p := Default()
	c10 := p.ValueMasking(1000, compMulAgg(p))
	c90 := p.ValueMasking(1000, compMulAgg(p))
	if c10 != c90 {
		t.Error("VM cost must not depend on selectivity")
	}
}

func TestScalarAggCrossovers(t *testing.T) {
	// Paper Fig 8a vs 8b: for the memory-bound multiplication query the
	// pullup wins from a mid-range selectivity; for the compute-bound
	// division query it only wins near 95%.
	p := Default()
	r := 1_000_000

	crossover := func(comp float64) float64 {
		for sel := 0.0; sel <= 1.0; sel += 0.01 {
			if s, _ := p.ChooseScalarAgg(r, sel, comp); s == ChooseValueMasking {
				return sel
			}
		}
		return 2 // never
	}
	mul := crossover(compMulAgg(p))
	div := crossover(compDivAgg(p))
	if mul > 0.6 {
		t.Errorf("mul crossover at %.2f; paper's memory-bound case favours VM over most of the range", mul)
	}
	if div < 0.85 || div > 1.0 {
		t.Errorf("div crossover at %.2f; paper says ~95%%", div)
	}
	if mul >= div {
		t.Errorf("mul crossover (%.2f) must precede div crossover (%.2f)", mul, div)
	}
}

// slotBytes mirrors ht.AggTable's per-group footprint for one accumulator.
const slotBytes = 26

func TestGroupAggSmallTableVMEquivalentToKM(t *testing.T) {
	// Paper Fig 9a/9b: for 10 and 1K groups, "key masking exhibits
	// virtually equivalent performance to value masking".
	p := Default()
	for _, groups := range []int{10, 1000} {
		vm := p.ValueMaskingGroup(1_000_000, compMulAgg(p)+p.CompMul, groups*slotBytes)
		km := p.KeyMasking(1_000_000, 0.5, compMulAgg(p)+p.CompCmp, groups*slotBytes)
		ratio := vm / km
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("groups=%d: VM/KM = %.2f, want near 1", groups, ratio)
		}
	}
}

func TestGroupAggLargeTableKMBeatsVM(t *testing.T) {
	// Paper Fig 9c: at 100K keys "value masking becomes markedly worse
	// than key masking" because unconditional lookups miss cache while
	// the throwaway entry stays resident.
	p := Default()
	r := 1_000_000
	ht := 100_000 * slotBytes
	vm := p.ValueMaskingGroup(r, compMulAgg(p)+p.CompMul, ht)
	km := p.KeyMasking(r, 0.3, compMulAgg(p)+p.CompCmp, ht)
	if km >= vm {
		t.Errorf("KM (%.0f) should beat VM (%.0f) for a 100K-group table at 30%% sel", km, vm)
	}
}

func TestGroupAggDecisionsSweep(t *testing.T) {
	// The planner's choices across the Fig 9 regimes.
	p := Default()
	r := 1_000_000
	comp := compMulAgg(p)

	// Small table, high selectivity: masking (VM or KM) must win.
	s, _ := p.ChooseGroupAgg(r, 0.9, comp, 1, 10*slotBytes)
	if s == ChooseHybrid {
		t.Error("small table at 90% sel: pushdown should lose to masking")
	}
	// Large table, low selectivity: hybrid must win (paper Fig 9d: hybrid
	// outperforms all alternatives until high selectivity).
	s, _ = p.ChooseGroupAgg(r, 0.1, comp, 1, 10_000_000*slotBytes)
	if s != ChooseHybrid {
		t.Errorf("10M groups at 10%% sel: got %v, want hybrid", s)
	}
	// Large table, very high selectivity: key masking overtakes.
	s, _ = p.ChooseGroupAgg(r, 0.95, comp, 1, 10_000_000*slotBytes)
	if s != ChooseKeyMasking {
		t.Errorf("10M groups at 95%% sel: got %v, want key-masking", s)
	}
	// Never value masking on a memory-resident table.
	for sel := 0.05; sel < 1; sel += 0.1 {
		if s, _ := p.ChooseGroupAgg(r, sel, comp, 1, 10_000_000*slotBytes); s == ChooseValueMasking {
			t.Errorf("sel=%.2f: VM chosen for memory-resident table", sel)
		}
	}
}

func TestComplexAggregationPrefersKeyMasking(t *testing.T) {
	// Paper Fig 6 Q1: ~98% selectivity, 8 aggregates, tiny hash table
	// (4 groups). "Our cost model determines that the complexity of the
	// aggregation would require masking many individual aggregate values,
	// which is significantly more expensive than masking the single
	// group-by key."
	p := Default()
	comp := 3*p.CompMul + 4*p.CompAdd // Q1's disc_price/charge arithmetic
	s, _ := p.ChooseGroupAgg(60_000_000, 0.98, comp, 8, 4*(8+1+8*8+8+1))
	if s != ChooseKeyMasking {
		t.Errorf("TPC-H Q1 shape: got %v, want key-masking", s)
	}
}

func TestSimpleGroupAggPrefersValueOrKeyMasking(t *testing.T) {
	// Paper Fig 6 Q13: ~98% selectivity, single count aggregate, SWOLE
	// "utilizes the value masking technique".
	p := Default()
	s, _ := p.ChooseGroupAgg(15_000_000, 0.98, p.CompAdd, 1, 1_500_000*slotBytes)
	if s == ChooseHybrid {
		t.Error("TPC-H Q13 shape: masking should win at 98% selectivity")
	}
}

func TestEagerAggregationRegimes(t *testing.T) {
	// Paper Fig 12: EA "almost always superior" for |S|=1K but "only
	// becomes beneficial at around 30% selectivity for the 1M size".
	p := Default()
	r := 4_000_000
	comp := compMulAgg(p)

	// |S| = 1K: EA wins across nearly the whole sweep.
	for _, sel := range []float64{0.1, 0.5, 0.9} {
		eager, gj, ea := p.ChooseGroupjoin(1000, sel, r, 1.0, sel, comp, 1000*slotBytes)
		if !eager {
			t.Errorf("|S|=1K sel=%.1f: EA (%.0f) should beat groupjoin (%.0f)", sel, ea, gj)
		}
	}
	// |S| = 1M: groupjoin wins at low selectivity, EA at high.
	eager, _, _ := p.ChooseGroupjoin(1_000_000, 0.05, r, 1.0, 0.05, comp, 1_000_000*slotBytes)
	if eager {
		t.Error("|S|=1M sel=5%: groupjoin should win")
	}
	eager, _, _ = p.ChooseGroupjoin(1_000_000, 0.9, r, 1.0, 0.9, comp, 1_000_000*slotBytes)
	if !eager {
		t.Error("|S|=1M sel=90%: EA should win")
	}
	// Monotonicity: once EA wins it keeps winning as selectivity rises
	// (fewer deletions).
	won := false
	for sel := 0.05; sel <= 1.0; sel += 0.05 {
		eager, _, _ := p.ChooseGroupjoin(1_000_000, sel, r, 1.0, sel, comp, 1_000_000*slotBytes)
		if won && !eager {
			t.Errorf("EA decision not monotone at sel=%.2f", sel)
		}
		won = won || eager
	}
	if !won {
		t.Error("EA never wins for |S|=1M; paper shows a crossover")
	}
}

func TestHybridGroupMatchesGroupjoinConditionalForm(t *testing.T) {
	// The conditional path is additive (read_cond + probe), mirroring the
	// paper's Groupjoin model.
	p := Default()
	got := p.HybridGroup(100, 1.0, 0, 1<<30)
	want := 100 * (p.ReadSeq + p.SelVec + p.ReadCond + p.HitMem)
	if got != want {
		t.Errorf("HybridGroup=%v, want %v", got, want)
	}
}

func TestCalibrateProducesUsableParams(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	p := Calibrate()
	if p.ReadSeq != 1.0 {
		t.Errorf("ReadSeq=%v, want normalized 1.0", p.ReadSeq)
	}
	if p.HitMem <= p.HitL1 {
		t.Errorf("HitMem (%v) must exceed HitL1 (%v)", p.HitMem, p.HitL1)
	}
	if p.CompDiv <= p.CompMul {
		t.Errorf("division (%v) must cost more than multiplication (%v)", p.CompDiv, p.CompMul)
	}
	if p.ReadCond <= p.ReadSeq {
		t.Errorf("conditional read (%v) must cost more than sequential (%v)", p.ReadCond, p.ReadSeq)
	}
	if p.ProbeMul < 1 || p.ProbeMul > 8 {
		t.Errorf("ProbeMul = %v outside [1, 8]", p.ProbeMul)
	}
}

func TestStrategyStrings(t *testing.T) {
	if ChooseHybrid.String() != "hybrid" || ChooseValueMasking.String() != "value-masking" || ChooseKeyMasking.String() != "key-masking" {
		t.Error("bad strategy names")
	}
}

func TestForWorkersBandwidthShare(t *testing.T) {
	p := Default()
	// Workers 0 and 1 leave everything untouched.
	for _, w := range []int{0, 1} {
		if q := p.ForWorkers(w); q != p {
			t.Errorf("ForWorkers(%d) changed params for a lone worker", w)
		}
	}
	// At the stream saturation point the streaming primitives are still
	// untouched — MemSaturation scanning cores exactly fill the bus — but
	// random DRAM probes, each demanding ProbeMul shares, already contend.
	w := int(p.MemSaturation)
	q := p.ForWorkers(w)
	if q.ReadSeq != p.ReadSeq || q.ReadCond != p.ReadCond || q.HitLLC != p.HitLLC {
		t.Errorf("streaming costs scaled at the saturation point: %+v", q)
	}
	if want := p.HitMem * float64(w) * p.ProbeMul / p.MemSaturation; q.HitMem != want {
		t.Errorf("HitMem = %v at %d workers, want %v (ProbeMul demand)", q.HitMem, w, want)
	}
	// Past saturation every shared primitive scales by its own demand
	// factor while per-core costs and computation are untouched.
	w = int(p.MemSaturation) * 4
	q = p.ForWorkers(w)
	f := float64(w) / p.MemSaturation
	if q.ReadSeq != p.ReadSeq*f || q.ReadCond != p.ReadCond*f || q.HitLLC != p.HitLLC*f {
		t.Errorf("streaming costs not scaled by %v: %+v", f, q)
	}
	if q.HitMem != p.HitMem*f*p.ProbeMul {
		t.Errorf("HitMem = %v, want %v", q.HitMem, p.HitMem*f*p.ProbeMul)
	}
	if q.HitL1 != p.HitL1 || q.HitL2 != p.HitL2 || q.HTNull != p.HTNull ||
		q.CompMul != p.CompMul || q.CompDiv != p.CompDiv {
		t.Errorf("per-core costs must not scale: %+v", q)
	}
}

func TestDirectCostClimbsWithWorkers(t *testing.T) {
	// The point of the per-primitive demand factors: a DRAM-resident
	// group-by's cost must climb with workers (ProbeMul prices the
	// probe-stream saturation the flat model missed), while a cache-resident
	// table's sees none of it: no probe hits DRAM.
	p := Default()
	r := 1_000_000
	comp := compMulAgg(p)
	htBytes := 4_000_000 * slotBytes // ~100 MB: DRAM-resident
	_, d1 := p.ForWorkers(1).ChooseGroupAgg(r, 0.5, comp, 1, htBytes)
	_, d4 := p.ForWorkers(4).ChooseGroupAgg(r, 0.5, comp, 1, htBytes)
	if d4 <= d1 {
		t.Errorf("direct cost at 4 workers (%.0f) must exceed 1 worker (%.0f): probe saturation unpriced", d4, d1)
	}
	_, s1 := p.ForWorkers(1).ChooseGroupAgg(r, 0.5, comp, 1, 1000*slotBytes)
	_, s4 := p.ForWorkers(4).ChooseGroupAgg(r, 0.5, comp, 1, 1000*slotBytes)
	if s4 != s1 {
		t.Errorf("cache-resident direct cost moved with workers: %v vs %v", s4, s1)
	}
}

func TestForWorkersShiftsCrossover(t *testing.T) {
	// A moderately compute-heavy scalar aggregation at 30% selectivity:
	// sequentially the pushdown's conditional reads are cheaper than
	// masking's unconditional compute, but under bus contention the
	// conditional-read penalty inflates while compute stays flat, so the
	// pullup takes over — the crossover shift parallelism induces.
	p := Default()
	const r, sel, comp = 1 << 20, 0.3, 3.0
	seq, _ := p.ChooseScalarAgg(r, sel, comp)
	par, _ := p.ForWorkers(16).ChooseScalarAgg(r, sel, comp)
	if seq != ChooseHybrid {
		t.Fatalf("sequential choice = %v, want hybrid", seq)
	}
	if par != ChooseValueMasking {
		t.Fatalf("16-worker choice = %v, want value-masking", par)
	}
}

// KeyAddressed shrinks the random-access latencies — by one factor, at every
// cache level — prices the throwaway entry's conditional route, and changes
// nothing else; a key-addressed table prices below a hashed one of the same
// footprint, and on a cache-resident one key masking at mid selectivity no
// longer undercuts value masking (the NullKey route is its one unpredictable
// branch).
func TestKeyAddressedScalesOnlyRandomAccess(t *testing.T) {
	p := Default().ForWorkers(4)
	q := p.KeyAddressed()
	for _, bytes := range []int{1 << 10, 100 << 10, 10 << 20, 100 << 20} {
		if got, want := q.HTLookup(bytes), p.HTLookup(bytes)/keyAddressedLines; got != want {
			t.Errorf("HTLookup(%d) = %v, want %v", bytes, got, want)
		}
		_, hashed := p.ChooseGroupAgg(1_000_000, 0.5, 1, 1, bytes)
		if _, dense := q.ChooseGroupAgg(1_000_000, 0.5, 1, 1, bytes); dense > hashed {
			t.Errorf("%d B: key-addressed %v priced above hashed %v", bytes, dense, hashed)
		}
	}
	if s, _ := q.ChooseGroupAgg(1_000_000, 0.5, 0, 3, 1<<10); s == ChooseKeyMasking {
		t.Error("key masking chosen at 50% selectivity over an L1-resident key-addressed table")
	}
	if s, _ := q.ChooseGroupAgg(1_000_000, 0.98, 5, 8, 1<<10); s != ChooseKeyMasking {
		t.Errorf("8 aggregates at 98%% selectivity: got %v, want key-masking (the Q1 regime survives)", s)
	}
	if q.HTNull != p.HTNull+p.ReadCond {
		t.Errorf("HTNull = %v, want %v", q.HTNull, p.HTNull+p.ReadCond)
	}
	q.HitL1, q.HitL2, q.HitLLC, q.HitMem, q.HTNull = p.HitL1, p.HitL2, p.HitLLC, p.HitMem, p.HTNull
	if q != p {
		t.Errorf("KeyAddressed changed a term besides the Hit* latencies and HTNull:\n%+v\n%+v", q, p)
	}
}
