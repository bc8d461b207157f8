// Package cost implements the cost models of the paper's Section III, which
// SWOLE uses to decide between predicate pushdown (hybrid) and its pullup
// techniques (value masking, key masking, eager aggregation).
//
// The models are expressed per tuple in abstract cost units (think cycles);
// only relative magnitudes matter because every decision is a comparison
// between two models evaluated with the same parameters. The parameters are
// the access primitives of Pirk et al. (ICDE 2013), cited by the paper:
//
//	read_seq   - amortized sequential read
//	read_cond  - conditional read (branch-misprediction and partial-cache-
//	             line penalties at intermediate selectivities)
//	ht_lookup  - random hash table probe, dependent on the table's size
//	             relative to the cache hierarchy
//	ht_null    - probe of the key-masking throwaway entry (stays cached)
//	comp       - computation cost of the aggregate expression
//
// Defaults approximate the paper's Intel E5-2660 v2 (32 KB L1, 256 KB L2,
// 25 MB LLC); Calibrate can re-measure the host.
package cost

// Params holds the access-primitive costs and the cache geometry used to
// classify hash table sizes.
type Params struct {
	ReadSeq  float64 // sequential read, per tuple
	ReadCond float64 // conditional read, per selected tuple

	L1Bytes  int // L1 data cache size
	L2Bytes  int // per-core L2 size
	LLCBytes int // last-level cache size

	HitL1  float64 // random access latency when structure fits L1
	HitL2  float64 // ... fits L2
	HitLLC float64 // ... fits LLC
	HitMem float64 // ... exceeds LLC

	HTNull    float64 // throwaway-entry access (key masking)
	SelVec    float64 // materialize + consume one selection-vector entry
	InsertMul float64 // ht_insert = InsertMul * ht_lookup
	DeleteMul float64 // ht_delete = DeleteMul * ht_lookup

	// Computation costs per operation, used to estimate comp for an
	// aggregate expression by introspection (Section III-A cites the
	// Tupleware-style introspection approach).
	CompAdd float64
	CompMul float64
	CompDiv float64
	CompCmp float64

	// MemSaturation is the number of concurrent scan workers whose
	// combined sequential-read demand saturates the memory bus. Below it,
	// adding workers costs nothing per worker; above it, each worker sees
	// only its share of the bus and the memory-side primitives inflate
	// proportionally (see ForWorkers). The paper's E5-2660 v2 moves
	// ~60 GB/s against ~15 GB/s per core, i.e. four scanning cores fill
	// the bus.
	MemSaturation float64

	// ProbeMul is the bus-bandwidth demand of one random DRAM probe
	// relative to the sequential-read baseline: a probe drags a whole
	// cache line (and its prefetch shadow) across the bus for a few useful
	// bytes, so a probing worker consumes ProbeMul times the bandwidth of
	// a scanning one and a gang of probers saturates the bus at
	// MemSaturation/ProbeMul workers. This is what prices a DRAM-resident
	// group table's negative scaling: R random probes per worker jam the
	// bus long before R sequential reads would (see ForWorkers).
	ProbeMul float64
}

// Default returns parameters approximating the paper's evaluation machine.
func Default() Params {
	return Params{
		ReadSeq:   1.0,
		ReadCond:  6.0,
		L1Bytes:   32 << 10,
		L2Bytes:   256 << 10,
		LLCBytes:  25 << 20,
		HitL1:     4,
		HitL2:     12,
		HitLLC:    40,
		HitMem:    180,
		HTNull:    4,
		SelVec:    1,
		InsertMul: 1.5,
		DeleteMul: 1.5,
		// Computation costs are pipelined throughputs, not latencies:
		// integer multiplies retire ~1/cycle, divides do not pipeline.
		CompAdd: 0.5,
		CompMul: 1,
		CompDiv: 20,
		CompCmp: 0.5,

		MemSaturation: 4,
		// A 64 B line fetched for ~16 useful bytes of slot state ≈ 4x the
		// per-byte demand of a stream. Deterministic, like every other
		// default, so the model's decisions are reproducible; Calibrate
		// re-measures it on the host.
		ProbeMul: 4,
	}
}

// ForWorkers returns the parameters as one of `workers` concurrent morsel
// workers observes them. Private-cache access costs (L1, L2, the cached
// throwaway entry) are per-core and unchanged; the costs that bottom out
// in shared resources inflate by their own bus-contention factor
// max(1, workers * demand / MemSaturation), where demand is the
// primitive's bandwidth appetite relative to a sequential scanner:
//
//	sequential/conditional reads, LLC hits   demand 1
//	random DRAM probes (HitMem)              demand ProbeMul (~4)
//
// Computation costs never change: cores do not share ALUs. The per-
// primitive demand is what prices the two parallel effects the flat model
// missed: a gang of workers each hammering a DRAM-resident group table
// saturates the bus at MemSaturation/ProbeMul workers — so such a group-by
// regresses as workers grow even while pure scans still scale. It also
// moves the pushdown/pullup crossover: contention makes memory relatively
// more expensive than compute, so whichever side of a decision leans
// harder on contended primitives loses ground as workers grow (see
// DESIGN.md, "Per-worker bandwidth share").
func (p Params) ForWorkers(workers int) Params {
	if workers <= 1 || p.MemSaturation <= 0 {
		return p
	}
	q := p
	// Streaming primitives: demand 1 per worker.
	if f := float64(workers) / p.MemSaturation; f > 1 {
		q.ReadSeq *= f
		q.ReadCond *= f
		q.HitLLC *= f
	}
	// Random DRAM probes: each worker demands ProbeMul bandwidth shares.
	// max2(·, 1) keeps zero-valued Params (hand-built test fixtures)
	// behaving like the old flat model.
	if f := float64(workers) * max2(p.ProbeMul, 1) / p.MemSaturation; f > 1 {
		q.HitMem *= f
	}
	return q
}

// keyAddressedLines is how many independent cache lines a hashed
// probe-and-accumulate is priced at for every one a key-addressed accumulate
// touches. The hashed table reads its key and epoch-stamp arrays to find the
// slot and then the group's record — three lines — while a table indexed by
// key-lo goes straight to the record. The factor is four, set when the hashed
// table had a slot-state array too; it is kept because the planner's picks
// were validated at four, and ROADMAP direction 3's fitted model is to
// re-fit it with the other terms.
const keyAddressedLines = 4

// KeyAddressed returns the parameters as a key-addressed (direct-indexed)
// group table observes them. Every random-access latency is paid for one
// line instead of keyAddressedLines, so the Hit* terms shrink by that
// factor. And HTNull, the throwaway access, is raised by ReadCond: an
// empirical correction, not the price of a branch — the key-masking fold
// reaches the throwaway record by arithmetic on the mask
// (ht.FoldTileKeyMasked) — kept because key masking still reads slower than
// the model prices it without the term: without it the planner picks key
// masking for tpch_generic's minmax_group, which runs 5.6 ms forced where
// value masking, the pick with it, runs 5.0 ms and hybrid 4.2 ms
// (EXPERIMENTS.md, "Key masking at its price"). ROADMAP direction 3's
// fitted model is to re-fit it.
// Sequential reads and computation are the same accesses they were.
// Evaluating the Section III models on the result, with the table's own
// footprint, prices the key-addressed form through the terms that price the
// hashed one.
func (p Params) KeyAddressed() Params {
	q := p
	q.HitL1 /= keyAddressedLines
	q.HitL2 /= keyAddressedLines
	q.HitLLC /= keyAddressedLines
	q.HitMem /= keyAddressedLines
	q.HTNull += p.ReadCond
	return q
}

// HTLookup returns the cost of one random probe into a structure of the
// given size, classified by the cache level it fits in.
func (p Params) HTLookup(bytes int) float64 {
	switch {
	case bytes <= p.L1Bytes:
		return p.HitL1
	case bytes <= p.L2Bytes:
		return p.HitL2
	case bytes <= p.LLCBytes:
		return p.HitLLC
	default:
		return p.HitMem
	}
}

// HTInsert returns the cost of one hash table insert.
func (p Params) HTInsert(bytes int) float64 { return p.InsertMul * p.HTLookup(bytes) }

// HTDelete returns the cost of one hash table delete.
func (p Params) HTDelete(bytes int) float64 { return p.DeleteMul * p.HTLookup(bytes) }

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func max3(a, b, c float64) float64 { return max2(a, max2(b, c)) }

// Hybrid is the pushdown cost model of Section III-A:
//
//	Hybrid = R * (read_seq + sel * max(comp, read_cond))
//
// r is the tuple count, sel the predicate selectivity in [0,1], comp the
// aggregation's computation cost per tuple. One refinement over the
// paper's printed formula: each selected tuple also pays SelVec for
// materializing and consuming its selection-vector entry (the idx store and
// reload visible in Figure 1's hybrid code); without it the formula puts
// the Fig 8b crossover at exactly 100% where the paper measures ~95%.
func (p Params) Hybrid(r int, sel, comp float64) float64 {
	return float64(r) * (p.ReadSeq + sel*(p.SelVec+max2(comp, p.ReadCond)))
}

// ValueMasking is the pullup cost model of Section III-A:
//
//	VM = R * (read_seq + max(comp, read_seq))
//
// The conditional read is replaced by a sequential one and the selectivity
// term disappears: every tuple is aggregated, masked or not.
func (p Params) ValueMasking(r int, comp float64) float64 {
	return float64(r) * (p.ReadSeq + max2(comp, p.ReadSeq))
}

// HybridGroup extends Hybrid to group-by aggregation. Selected tuples pay a
// conditional read *plus* the interleavable max of computation and lookup;
// the additive read_cond term follows the paper's own Groupjoin model,
// whose conditional paths are read_cond + ht_insert / read_cond + ht_lookup
// rather than a max (the conditional access cannot overlap the probe it
// feeds).
func (p Params) HybridGroup(r int, sel, comp float64, htBytes int) float64 {
	return float64(r) * (p.ReadSeq + sel*(p.SelVec+p.ReadCond+max2(comp, p.HTLookup(htBytes))))
}

// ValueMaskingGroup is the group-by extension of Section III-B:
//
//	VM = R * (read_seq + max(comp, read_seq, ht_lookup))
//
// Every tuple performs a real lookup on the real key, so the lookup cost is
// paid unconditionally, but sequential reads, computation and the probe
// interleave ("it can be interleaved with the other parts").
func (p Params) ValueMaskingGroup(r int, comp float64, htBytes int) float64 {
	return float64(r) * (p.ReadSeq + max3(comp, p.ReadSeq, p.HTLookup(htBytes)))
}

// KeyMasking is the key-masking model of Section III-B:
//
//	KM = R * (read_seq + sel * max(comp, read_seq, ht_lookup)
//	               + (1-sel) * max(comp, read_seq, ht_null))
//
// Masked tuples hit the throwaway entry, which stays cached.
func (p Params) KeyMasking(r int, sel, comp float64, htBytes int) float64 {
	return float64(r) * (p.ReadSeq +
		sel*max3(comp, p.ReadSeq, p.HTLookup(htBytes)) +
		(1-sel)*max3(comp, p.ReadSeq, p.HTNull))
}

// Groupjoin is the traditional groupjoin model of Section III-E:
//
//	GJ = S * (read_seq + sel_S * (read_cond + ht_insert))
//	   + R * (read_seq + sel_R * (read_cond + ht_lookup)
//	          + join_prob * max(comp, read_cond))
func (p Params) Groupjoin(s int, selS float64, r int, selR, joinProb, comp float64, htBytes int) float64 {
	build := float64(s) * (p.ReadSeq + selS*(p.ReadCond+p.HTInsert(htBytes)))
	probe := float64(r) * (p.ReadSeq + selR*(p.ReadCond+p.HTLookup(htBytes)) +
		joinProb*max2(comp, p.ReadCond))
	return build + probe
}

// EagerAggregation is the pullup model of Section III-E:
//
//	EA = R * (read_seq + sel_R * min(Hybrid, VM, KM))
//	   + S * (read_seq + (1-sel_S) * (read_cond + ht_delete))
//
// innerBest is the per-tuple cost of the cheapest aggregation strategy for
// the unconditional build (the min term, already divided by R).
func (p Params) EagerAggregation(r int, selR float64, innerBest float64, s int, selS float64, htBytes int) float64 {
	build := float64(r) * (p.ReadSeq + selR*innerBest)
	del := float64(s) * (p.ReadSeq + (1-selS)*(p.ReadCond+p.HTDelete(htBytes)))
	return build + del
}

// AggStrategy identifies the aggregation technique chosen by the model.
type AggStrategy int

// Aggregation strategies the planner chooses among.
const (
	ChooseHybrid AggStrategy = iota
	ChooseValueMasking
	ChooseKeyMasking
)

// String names the strategy.
func (s AggStrategy) String() string {
	switch s {
	case ChooseHybrid:
		return "hybrid"
	case ChooseValueMasking:
		return "value-masking"
	case ChooseKeyMasking:
		return "key-masking"
	}
	return "?"
}

// ChooseScalarAgg picks hybrid vs value masking for a scalar aggregation
// (Section III-A): pushdown when compute-bound, pullup when memory-bound.
// The single mask multiply of scalar value masking issues on a free
// execution port under both memory-bound and division-bound loops, so it
// does not enter comp; masking only becomes a real computation cost when
// many aggregates must each be masked (see ChooseGroupAgg).
func (p Params) ChooseScalarAgg(r int, sel, comp float64) (AggStrategy, float64) {
	h := p.Hybrid(r, sel, comp)
	vm := p.ValueMasking(r, comp)
	if vm < h {
		return ChooseValueMasking, vm
	}
	return ChooseHybrid, h
}

// ChooseGroupAgg picks among hybrid, value masking, and key masking for a
// group-by aggregation (Section III-B). htBytes is the expected hash table
// size (groups x slot width); nAggs is the number of aggregate values per
// group. Value masking must mask *every* individual aggregate, which is the
// paper's stated reason TPC-H Q1 prefers key masking: "the complexity of
// the aggregation would require masking many individual aggregate values,
// which is significantly more expensive than masking the single group-by
// key".
func (p Params) ChooseGroupAgg(r int, sel, comp float64, nAggs, htBytes int) (AggStrategy, float64) {
	best, cost := ChooseHybrid, p.HybridGroup(r, sel, comp, htBytes)
	if vm := p.ValueMaskingGroup(r, comp+float64(nAggs)*p.CompMul, htBytes); vm < cost {
		best, cost = ChooseValueMasking, vm
	}
	if km := p.KeyMasking(r, sel, comp+p.CompCmp, htBytes); km < cost {
		best, cost = ChooseKeyMasking, km
	}
	return best, cost
}

// BestAggPerTuple returns the min(Hybrid, VM, KM) term of the eager-
// aggregation model, normalized per tuple.
func (p Params) BestAggPerTuple(r int, sel, comp float64, nAggs, htBytes int) float64 {
	_, c := p.ChooseGroupAgg(r, sel, comp, nAggs, htBytes)
	return c / float64(r)
}

// ChooseGroupjoin reports whether eager aggregation should replace the
// traditional groupjoin, plus both costs (Section III-E).
func (p Params) ChooseGroupjoin(s int, selS float64, r int, selR, joinProb, comp float64, htBytes int) (eager bool, gj, ea float64) {
	gj = p.Groupjoin(s, selS, r, selR, joinProb, comp, htBytes)
	// The eager build aggregates every R tuple passing R's own predicate
	// unconditionally with respect to the join, so the inner min term is
	// evaluated at selectivity 1.
	inner := p.BestAggPerTuple(r, 1.0, comp, 1, htBytes)
	ea = p.EagerAggregation(r, selR, inner, s, selS, htBytes)
	return ea < gj, gj, ea
}
