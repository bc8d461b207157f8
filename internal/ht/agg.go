package ht

import "fmt"

// AggTable is the group-by aggregation table. Each group carries a fixed
// number of int64 accumulator lanes plus a tuple count, stored together as
// one record, which is enough for the sum/avg/count/min/max aggregates of
// the paper's workloads (avg = sum/count at finalization; decimals are
// fixed-point int64 per Section IV).
//
// One table, two addressing forms behind one method set:
//
//   - Hashed (NewAggTable): open addressing over power-of-two capacities;
//     a key's slot is found by probing. Works for any key.
//   - Key-addressed (NewDenseAggTable): the key domain [lo, hi] is known
//     and dense, so the slot IS key-lo behind a range check — no hash, no
//     key array, one record line per access — and the slots walk in
//     ascending key order, so an emission needs no sort.
//
// The form is fixed at construction; callers pick it once, when a plan is
// compiled, and the kernels run the same calls against either. A one-lane
// key-addressed table may be packed — one word, sum<<32 + count, one add per
// fold — by a caller that proved no sum leaves int32 nor count 2^32.
//
// Two features exist specifically for SWOLE:
//
//   - A throwaway record reached via NullKey (key masking, Section III-B):
//     masked tuples aggregate into the record just past the last group, at
//     slot Cap(), which stays cache-resident no matter how large the table
//     grows. It is an ordinary record, so the tile kernels index it like any
//     group's, without a branch, and it is never part of a query result.
//   - Validity by tuple count (value masking, Section III-B): when values
//     are masked rather than keys, every tuple performs a real lookup, so
//     groups can be reached by tuples that the predicate rejected. Such a
//     tuple adds mask 0 to the count, so a group whose count stayed zero is
//     distinguished from a real group whose aggregate happens to be zero.
//
// Tables are built to be recycled across queries. The hashed form's Reset
// invalidates every slot by bumping an epoch stamp instead of zeroing the
// arrays; a slot holds a group only when its epoch matches the table's
// current generation, and inserts lazily re-initialize whatever stale record
// a reclaimed slot carries. The key-addressed form's Reset clears its record
// array, which the selection rule keeps no larger than the hashed table it
// replaces.
type AggTable struct {
	nAccs  int
	stride int     // nAccs+1: a record is the group's lanes, then its tuple count; 1 when packed
	ident  []int64 // per-lane value a new group starts from; nil means all zero
	recs   []int64 // slot-major records: Cap() groups, then the throwaway record

	// Hashed form.
	keys  []int64
	epoch []uint32 // slot i holds a group iff epoch[i] == cur
	cur   uint32   // current generation
	len   int      // groups; growth trigger
	mask  uint64

	// Key-addressed form: slot = key-lo for keys in [lo, lo+span); span is
	// zero on a hashed table.
	lo   int64
	span uint64

	// Grows counts capacity doublings triggered by Lookup. A caller that
	// sized the table from a cardinality hint can assert that a scan never
	// grew it mid-flight: Grows stays 0. The key-addressed form never
	// grows.
	Grows uint64
}

// NewAggTable returns a hashed table with nAccs accumulators per group and
// room for about hint groups before growing. Non-positive hints get the
// minimum capacity.
func NewAggTable(nAccs, hint int) *AggTable {
	capacity := hintCap(hint)
	return &AggTable{
		nAccs:  nAccs,
		stride: nAccs + 1,
		cur:    1,
		recs:   make([]int64, (capacity+1)*(nAccs+1)),
		keys:   make([]int64, capacity),
		epoch:  make([]uint32, capacity),
		mask:   uint64(capacity - 1),
	}
}

// MaxDenseDomain bounds the key-addressed form's domain: slots travel as
// int32 through the tile operations.
const MaxDenseDomain = 1<<31 - 1

// NewDenseAggTable returns a key-addressed table over the key domain
// [lo, hi]: one allocation, the record array with the throwaway record at
// its end, where the hashed form makes three. Any other key except NullKey
// panics on access — a domain is a fact of the column object it was read
// from, so a key outside it means the caller ran a plan against data it was
// not compiled for, and the range check turns that into a loud failure
// instead of an out-of-range write. The domain must exclude NullKey and hold
// at most MaxDenseDomain keys; packed needs nAccs == 1.
func NewDenseAggTable(nAccs int, lo, hi int64, packed bool) *AggTable {
	span, stride := uint64(hi)-uint64(lo)+1, nAccs+1
	if hi < lo || lo == NullKey || span > MaxDenseDomain || packed && nAccs != 1 {
		panic(fmt.Sprintf("ht: %d lanes over the key domain [%d, %d] cannot be key-addressed (packed %v)", nAccs, lo, hi, packed))
	}
	if packed {
		stride = 1
	}
	return &AggTable{
		nAccs:  nAccs,
		stride: stride,
		recs:   make([]int64, (int(span)+1)*stride),
		lo:     lo,
		span:   span,
	}
}

// Fits reports whether t is already the table a compile asks for, so that a
// re-compiled plan may adopt it instead of building one: nAccs lanes and, for
// a key-addressed request (hi >= lo), the domain [lo, hi] and the packing;
// for a hashed one (hi < lo) at least the capacity NewAggTable(nAccs, hint)
// starts at and at most twice it — what a predecessor that outgrew a similar
// hint reached. Lane identities are not compared: a caller sets them again.
func (t *AggTable) Fits(nAccs int, lo, hi int64, packed bool, hint int) bool {
	if t.nAccs != nAccs {
		return false
	}
	if hi < lo {
		want := hintCap(hint)
		return t.span == 0 && t.Cap() >= want && t.Cap() <= 2*want
	}
	return t.span == uint64(hi)-uint64(lo)+1 && t.lo == lo && t.packed() == packed
}

// HashedBytes is the footprint of the hashed table NewAggTable(nAccs, hint)
// builds — its slots and the throwaway record: with DenseBytes, the two sides
// of the rule by which a compile picks the form.
func HashedBytes(nAccs, hint int) int {
	return hintCap(hint)*HashedSlotBytes(nAccs) + 8*(nAccs+1)
}

// HashedSlotBytes is one hashed slot's footprint — its key, its epoch stamp,
// and its record of lanes and count — the size cost models estimate a hashed
// table by.
func HashedSlotBytes(nAccs int) int { return 8 + 4 + 8*(nAccs+1) }

// DenseBytes is the footprint of a key-addressed table over domain keys:
// one record per key and the throwaway record.
func DenseBytes(nAccs int, domain uint64, packed bool) uint64 {
	if packed {
		nAccs = 0 // the count shares the lane's word
	}
	return (domain + 1) * 8 * uint64(nAccs+1)
}

// packed reports the one-word record: the count has no word of its own.
func (t *AggTable) packed() bool { return t.stride == t.nAccs }

// count reads slot's tuple count from its record.
func (t *AggTable) count(slot int) int64 {
	if t.packed() {
		return int64(uint32(t.recs[slot]))
	}
	return t.recs[slot*t.stride+t.nAccs]
}

// Reset empties the table, keeping the allocated capacity for reuse. The
// hashed form does it in O(1) by advancing the generation counter: slots
// from earlier generations read as empty and are re-initialized lazily when
// an insert reclaims them. The key-addressed form clears its records. The
// Grows statistic is preserved (it is cumulative); the throwaway record
// restarts like a group's.
func (t *AggTable) Reset() {
	if t.span != 0 {
		t.initRecs(t.recs)
	} else {
		t.initRecs(t.recs[t.Cap()*t.stride:])
		t.cur++
		if t.cur == 0 {
			// The 32-bit generation wrapped (after ~4 billion resets): stale
			// stamps could now collide with the new generation, so fall back
			// to a hard clear once.
			clear(t.epoch)
			t.cur = 1
		}
		t.len = 0
	}
}

// initRecs resets whole records to what a new group starts from: the lane
// identities and a zero count.
func (t *AggTable) initRecs(recs []int64) {
	if t.ident == nil {
		clear(recs)
		return
	}
	if len(recs) == 0 {
		return
	}
	n := copy(recs, t.ident)
	recs[n] = 0
	for n++; n < len(recs); n *= 2 {
		copy(recs[n:], recs[:n])
	}
}

// setEpochForTest forces the generation counter to cur, re-stamping every
// slot of the current generation so it stays live. Tests use it to reach
// the 32-bit wrap fallback in Reset without four billion calls.
func (t *AggTable) setEpochForTest(cur uint32) {
	for i := range t.epoch {
		if t.epoch[i] == t.cur {
			t.epoch[i] = cur
		}
	}
	t.cur = cur
}

// Len returns the number of groups, excluding the throwaway record. On a
// key-addressed table a group exists once a tuple counted into it, and Len
// walks the records.
func (t *AggTable) Len() int {
	if t.span == 0 {
		return t.len
	}
	n := 0
	for s := range int(t.span) {
		if t.count(s) > 0 {
			n++
		}
	}
	return n
}

// Cap returns the current slot capacity, which is also the throwaway
// record's slot; the cost model uses it to place the table in a cache class.
func (t *AggTable) Cap() int { return len(t.recs)/t.stride - 1 }

// Lookup returns the slot index for key, inserting an empty group into a
// hashed table if absent. A NullKey lookup returns -1, which the Add*
// methods route to the throwaway record. The returned slot is only valid
// until the next Lookup, which may grow the table; callers accumulate
// immediately, exactly as the generated code in the paper's Figure 4 does.
func (t *AggTable) Lookup(key int64) int {
	// A hashed table's span is zero, so only an in-domain key of a
	// key-addressed table passes the check; the form is never tested apart.
	if u := uint64(key) - uint64(t.lo); u < t.span {
		return int(u)
	}
	return t.lookupSlow(key)
}

// lookupSlow is Lookup past the key-addressed fast path: the hashed form's
// probe, or a key the range check refused.
func (t *AggTable) lookupSlow(key int64) int {
	if t.span != 0 {
		t.outside(key)
		return -1
	}
	return t.probeInsert(key)
}

// outside vets a key the key-addressed range check refused: NullKey goes on
// to the throwaway record, anything else panics.
func (t *AggTable) outside(key int64) {
	if key != NullKey {
		panic(fmt.Sprintf("ht: key %d outside the table's domain [%d, %d]", key, t.lo, t.lo+int64(t.span-1)))
	}
}

// refuse is a tile kernel's out-of-line path for a lane its key-addressed
// range check refused: it vets the key (outside), folds the lane into the
// throwaway record — m into the count, v·m into lane acc — and returns the
// record's slot. The kernel's lane loop ends at the refused lane and resumes
// after it, so no call sits inside the loop.
func (t *AggTable) refuse(key int64, acc int, v, m int64) int32 {
	t.outside(key)
	tw := t.Cap()
	if t.packed() {
		t.recs[tw] += (v*m)<<32 + m
	} else {
		r := t.recs[tw*t.stride:]
		r[t.nAccs] += m
		r[acc] += v * m
	}
	return int32(tw)
}

func (t *AggTable) probeInsert(key int64) int {
	if key == NullKey {
		return -1
	}
	if t.len >= len(t.keys)*3/4 {
		t.Grows++
		t.rehash(len(t.keys) * 2)
	}
	j := t.probe(key)
	if t.epoch[j] != t.cur {
		// Key is absent: claim the free slot, re-initializing whatever a
		// previous generation left in it.
		t.epoch[j], t.keys[j] = t.cur, key
		t.initRecs(t.recs[j*t.stride : (j+1)*t.stride])
		t.len++
	}
	return j
}

// probe returns key's slot in the hashed form, or the free slot its probe
// chain ends at when the key is absent.
func (t *AggTable) probe(key int64) int {
	i := hash64(uint64(key)) & t.mask
	for t.epoch[i] == t.cur && t.keys[i] != key {
		i = (i + 1) & t.mask
	}
	return int(i)
}

// Find returns the slot for key without inserting, or -2 if absent.
// NullKey returns -1 (the throwaway record).
func (t *AggTable) Find(key int64) int {
	if key == NullKey {
		return -1
	}
	if t.span != 0 {
		if u := uint64(key) - uint64(t.lo); u < t.span && t.count(int(u)) > 0 {
			return int(u)
		}
		return -2
	}
	if i := t.probe(key); t.epoch[i] == t.cur {
		return i
	}
	return -2
}

// Add accumulates v into accumulator acc of the given slot and bumps the
// group's tuple count once per acc==0 call. Slot -1 targets the throwaway
// record.
func (t *AggTable) Add(slot, acc int, v int64) {
	if slot < 0 {
		slot = t.Cap()
	}
	if t.packed() {
		t.recs[slot] += v<<32 + 1
		return
	}
	r := t.recs[slot*t.stride : (slot+1)*t.stride]
	r[acc] += v
	if acc == 0 {
		r[len(r)-1]++
	}
}

// AddMasked accumulates v*m and adds m to the group's tuple count once per
// acc==0 call — the value-masking bookkeeping step of Section III-B. m
// must be 0 or 1. Slot -1 targets the throwaway record.
func (t *AggTable) AddMasked(slot, acc int, v int64, m byte) {
	if slot < 0 {
		slot = t.Cap()
	}
	if t.packed() {
		t.recs[slot] += (v*int64(m))<<32 + int64(m)
		return
	}
	r := t.recs[slot*t.stride : (slot+1)*t.stride]
	r[acc] += v * int64(m)
	if acc == 0 {
		r[len(r)-1] += int64(m)
	}
}

// Acc returns accumulator acc of slot (slot -1 reads the throwaway record).
func (t *AggTable) Acc(slot, acc int) int64 {
	if slot < 0 {
		slot = t.Cap()
	}
	if t.packed() {
		return t.recs[slot] >> 32
	}
	return t.recs[slot*t.stride+acc]
}

// Count returns the tuple count of slot (slot -1 reads the throwaway
// record).
func (t *AggTable) Count(slot int) int64 {
	if slot < 0 {
		slot = t.Cap()
	}
	return t.count(slot)
}

// ForEach visits every group with a positive tuple count: in slot order on a
// hashed table, which is ascending key order on a key-addressed one. A group
// whose count stayed zero — reached only under value masking, or by a bare
// Lookup insert into a hashed table — is skipped.
func (t *AggTable) ForEach(fn func(key int64, slot int)) {
	for i := t.NextLive(0); i >= 0; i = t.NextLive(i + 1) {
		fn(t.Key(i), i)
	}
}

// rehash moves the table to a fresh array of the given power-of-two
// capacity, re-inserting every group of the current generation and
// carrying the throwaway record over.
func (t *AggTable) rehash(capacity int) {
	old := *t
	t.keys = make([]int64, capacity)
	t.epoch = make([]uint32, capacity)
	t.cur = 1
	t.recs = make([]int64, (capacity+1)*t.stride)
	copy(t.recs[capacity*t.stride:], old.recs[old.Cap()*t.stride:])
	t.mask = uint64(capacity - 1)
	t.len = 0
	for i := range old.keys {
		if old.epoch[i] != old.cur {
			continue
		}
		j := t.probeInsert(old.keys[i])
		copy(t.recs[j*t.stride:(j+1)*t.stride], old.recs[i*t.stride:(i+1)*t.stride])
	}
}
