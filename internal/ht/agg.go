package ht

// AggTable is a group-by aggregation hash table. Each group carries a fixed
// number of int64 accumulators plus a tuple count, which is enough for the
// sum/avg/count aggregates of the paper's workloads (avg = sum/count at
// finalization; decimals are fixed-point int64 per Section IV).
//
// Three features exist specifically for SWOLE:
//
//   - A throwaway entry reached via NullKey (key masking, Section III-B):
//     masked tuples aggregate into Throwaway, off the main array, so the
//     access stays cache-resident no matter how large the table grows.
//   - A per-group validity flag (value masking, Section III-B): when values
//     are masked rather than keys, every tuple performs a real lookup, so
//     groups can be created by tuples that the predicate rejected; OR-ing
//     the predicate bit into the flag distinguishes them from real groups
//     whose aggregate happens to be zero.
//   - Tombstone deletion (eager aggregation, Section III-E): after the
//     unconditional aggregation, keys filtered by the join are deleted.
//
// Tables are built to be recycled across queries: Reset invalidates every
// slot by bumping an epoch stamp instead of zeroing the arrays, so a
// steady-state workload reuses one table (and its capacity) forever with
// an O(1) reset. A slot is live only when its epoch matches the table's
// current generation; inserts lazily re-zero whatever stale accumulator
// state a reclaimed slot carries.
type AggTable struct {
	nAccs int
	ident []int64 // per-lane value a new group starts from; nil means all zero
	keys  []int64
	state []byte
	epoch []uint32 // slot is from the current generation iff epoch[i] == cur
	cur   uint32   // current generation
	accs  []int64  // capacity * nAccs, slot-major
	count []int64
	valid []byte
	len   int // live groups
	used  int // full + tombstone slots this generation; growth trigger
	mask  uint64

	// Throwaway receives aggregates for NullKey lookups. Its contents are
	// never part of a query result.
	Throwaway      []int64
	ThrowawayCount int64

	// Probes counts total probe steps, exposed for cost-model validation.
	Probes uint64
	// Grows counts capacity doublings triggered by Lookup. A caller that
	// preallocated from a cardinality hint (Reserve) can assert that a
	// scan never grew the table mid-flight: Grows stays 0.
	Grows uint64

	// pf sinks the loads issued by Touch so they cannot be eliminated.
	pf uint64
}

// NewAggTable returns a table with nAccs accumulators per group and room
// for about hint groups before growing. Non-positive hints get the
// minimum capacity.
func NewAggTable(nAccs, hint int) *AggTable {
	capacity := hintCap(hint)
	return &AggTable{
		nAccs:     nAccs,
		cur:       1,
		keys:      make([]int64, capacity),
		state:     make([]byte, capacity),
		epoch:     make([]uint32, capacity),
		accs:      make([]int64, capacity*nAccs),
		count:     make([]int64, capacity),
		valid:     make([]byte, capacity),
		mask:      uint64(capacity - 1),
		Throwaway: make([]int64, nAccs),
	}
}

// Reset empties the table in O(1) by advancing the generation counter,
// keeping the allocated capacity for reuse. Slots from earlier generations
// read as empty and are re-initialized lazily when an insert reclaims
// them. The Probes and Grows statistics are preserved (they are
// cumulative); the throwaway entry is cleared.
func (t *AggTable) Reset() {
	t.cur++
	if t.cur == 0 {
		// The 32-bit generation wrapped (after ~4 billion resets): stale
		// stamps could now collide with the new generation, so fall back
		// to a hard clear once.
		for i := range t.epoch {
			t.epoch[i] = 0
		}
		t.cur = 1
	}
	t.len, t.used = 0, 0
	for a := range t.Throwaway {
		t.Throwaway[a] = 0
	}
	t.ThrowawayCount = 0
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

// Reserve grows the table, if needed, so that about hint groups fit
// without Lookup ever triggering grow() — the cardinality-hinted
// preallocation used when cached statistics predict the group count. It
// rehashes any live groups and does not count toward Grows. Non-positive
// hints never shrink the table and are no-ops.
func (t *AggTable) Reserve(hint int) {
	capacity := hintCap(hint)
	if capacity <= len(t.keys) {
		return
	}
	t.rehash(capacity)
}

// NAccs returns the number of accumulators per group.
func (t *AggTable) NAccs() int { return t.nAccs }

// Len returns the number of groups, excluding the throwaway entry.
func (t *AggTable) Len() int { return t.len }

// Cap returns the current slot capacity; the cost model uses it to place
// the table in a cache class.
func (t *AggTable) Cap() int { return len(t.keys) }

// SlotBytes returns the approximate in-memory size of one slot, used by the
// cost model to decide which cache level the table occupies.
func (t *AggTable) SlotBytes() int { return 8 + 1 + 8*t.nAccs + 8 + 1 }

// live returns the effective state of slot i in the current generation.
func (t *AggTable) live(i uint64) byte {
	if t.epoch[i] != t.cur {
		return slotEmpty
	}
	return t.state[i]
}

// Lookup returns the slot index for key, inserting an empty group if
// absent. A NullKey lookup returns -1, which the Add* methods route to the
// throwaway entry. The returned slot is only valid until the next Lookup,
// which may grow the table; callers accumulate immediately, exactly as the
// generated code in the paper's Figure 4 does.
func (t *AggTable) Lookup(key int64) int {
	if key == NullKey {
		return -1
	}
	if t.used >= len(t.keys)*3/4 {
		t.Grows++
		t.rehash(len(t.keys) * 2)
	}
	i := hash64(uint64(key)) & t.mask
	grave := -1
	for {
		t.Probes++
		switch t.live(i) {
		case slotEmpty:
			// Key is absent; insert into the earliest tombstone on the
			// probe chain if one was seen, else into this empty slot.
			j := int(i)
			if grave >= 0 {
				j = grave
			} else {
				t.used++
			}
			t.state[j] = slotFull
			t.epoch[j] = t.cur
			t.keys[j] = key
			// Re-zero whatever a previous generation (or a tombstoned
			// group) left in the slot.
			t.count[j] = 0
			t.valid[j] = 0
			base := j * t.nAccs
			if t.ident != nil {
				copy(t.accs[base:base+t.nAccs], t.ident)
			} else {
				for a := 0; a < t.nAccs; a++ {
					t.accs[base+a] = 0
				}
			}
			t.len++
			return j
		case slotTombstone:
			if grave < 0 {
				grave = int(i)
			}
		case slotFull:
			if t.keys[i] == key {
				return int(i)
			}
		}
		i = (i + 1) & t.mask
	}
}

// Find returns the slot for key without inserting, or -2 if absent.
// NullKey returns -1 (the throwaway).
func (t *AggTable) Find(key int64) int {
	if key == NullKey {
		return -1
	}
	i := hash64(uint64(key)) & t.mask
	for {
		t.Probes++
		switch t.live(i) {
		case slotEmpty:
			return -2
		case slotFull:
			if t.keys[i] == key {
				return int(i)
			}
		}
		i = (i + 1) & t.mask
	}
}

// Contains reports whether key occupies a live slot — the read-only
// analogue of Find(key) >= 0 (NullKey is absent: it maps to the throwaway
// entry, not a slot). It does not touch the Probes statistics counter, so
// concurrent probe-side workers may call it on a table whose build phase
// has finished.
func (t *AggTable) Contains(key int64) bool {
	if key == NullKey {
		return false
	}
	i := hash64(uint64(key)) & t.mask
	for {
		switch t.live(i) {
		case slotEmpty:
			return false
		case slotFull:
			if t.keys[i] == key {
				return true
			}
		}
		i = (i + 1) & t.mask
	}
}

// Add accumulates v into accumulator acc of the given slot and bumps the
// group's tuple count once per acc==0 call. Slot -1 targets the throwaway.
func (t *AggTable) Add(slot, acc int, v int64) {
	if slot < 0 {
		t.Throwaway[acc] += v
		if acc == 0 {
			t.ThrowawayCount++
		}
		return
	}
	t.accs[slot*t.nAccs+acc] += v
	if acc == 0 {
		t.count[slot]++
	}
	t.valid[slot] = 1
}

// AddMasked accumulates v*m and ORs m into the group's validity flag — the
// value-masking bookkeeping step of Section III-B. m must be 0 or 1.
func (t *AggTable) AddMasked(slot, acc int, v int64, m byte) {
	if slot < 0 {
		t.Throwaway[acc] += v * int64(m)
		if acc == 0 {
			t.ThrowawayCount += int64(m)
		}
		return
	}
	t.accs[slot*t.nAccs+acc] += v * int64(m)
	if acc == 0 {
		t.count[slot] += int64(m)
	}
	t.valid[slot] |= m
}

// Acc returns accumulator acc of slot (slot -1 reads the throwaway).
func (t *AggTable) Acc(slot, acc int) int64 {
	if slot < 0 {
		return t.Throwaway[acc]
	}
	return t.accs[slot*t.nAccs+acc]
}

// Count returns the tuple count of slot.
func (t *AggTable) Count(slot int) int64 {
	if slot < 0 {
		return t.ThrowawayCount
	}
	return t.count[slot]
}

// Delete removes key from the table, leaving a tombstone so later probes
// still find keys that collided past it. It reports whether the key was
// present. Eager aggregation (Section III-E) deletes every build-side key
// whose probe-side tuple fails the join predicate.
func (t *AggTable) Delete(key int64) bool {
	i := hash64(uint64(key)) & t.mask
	for {
		t.Probes++
		switch t.live(i) {
		case slotEmpty:
			return false
		case slotFull:
			if t.keys[i] == key {
				t.state[i] = slotTombstone
				t.valid[i] = 0
				t.count[i] = 0
				base := int(i) * t.nAccs
				for a := 0; a < t.nAccs; a++ {
					t.accs[base+a] = 0
				}
				t.len--
				return true
			}
		}
		i = (i + 1) & t.mask
	}
}

// ForEach visits every live group in slot order. Groups whose validity flag
// was never set (possible only under value masking) are skipped unless
// includeInvalid is true.
func (t *AggTable) ForEach(includeInvalid bool, fn func(key int64, slot int)) {
	for i := range t.keys {
		if t.live(uint64(i)) == slotFull && (includeInvalid || t.valid[i] != 0) {
			fn(t.keys[i], i)
		}
	}
}

// rehash moves the table to a fresh array of the given power-of-two
// capacity, re-inserting every live group of the current generation.
func (t *AggTable) rehash(capacity int) {
	old := *t
	t.keys = make([]int64, capacity)
	t.state = make([]byte, capacity)
	t.epoch = make([]uint32, capacity)
	t.cur = 1
	t.accs = make([]int64, capacity*t.nAccs)
	t.count = make([]int64, capacity)
	t.valid = make([]byte, capacity)
	t.mask = uint64(capacity - 1)
	t.len = 0
	t.used = 0
	for i := range old.keys {
		if old.live(uint64(i)) != slotFull {
			continue
		}
		j := t.Lookup(old.keys[i])
		copy(t.accs[j*t.nAccs:(j+1)*t.nAccs], old.accs[i*old.nAccs:(i+1)*old.nAccs])
		t.count[j] = old.count[i]
		t.valid[j] = old.valid[i]
	}
}
