package ht

// KeyTable maps unique 64-bit keys to values of type V: JoinTable (a
// build-side row per join key) and SetTable (no value: the hash-based
// semijoin structure that positional bitmaps replace in SWOLE, Section
// III-D). Every join in the paper's workloads is a foreign-key/primary-key
// join, so keys on the build side are unique; a duplicate insert keeps the
// first value and reports false. A set's value array has zero-size elements,
// so it holds no memory, and Contains loads no value.
//
// Like AggTable, a KeyTable is built to be recycled: Reset invalidates
// every slot by bumping an epoch stamp, so steady-state workloads rebuild
// into the same capacity with no allocation and no O(capacity) clear.
type KeyTable[V any] struct {
	keys  []int64
	vals  []V
	epoch []uint32 // slot i holds a key iff epoch[i] == cur
	cur   uint32
	len   int
	mask  uint64

	// Grows counts capacity doublings triggered by Insert; 0 after a scan
	// means the preallocation hint was sufficient.
	Grows uint64
}

// JoinTable maps a unique join key to the build-side row that carries it.
type JoinTable = KeyTable[int32]

// SetTable is a set of 64-bit keys.
type SetTable = KeyTable[struct{}]

// NewJoinTable returns a join table with room for about hint keys.
// Non-positive hints get the minimum capacity.
func NewJoinTable(hint int) *JoinTable { return newKeyTable[int32](hintCap(hint)) }

// NewSetTable returns a set with room for about hint keys. Non-positive
// hints get the minimum capacity.
func NewSetTable(hint int) *SetTable { return newKeyTable[struct{}](hintCap(hint)) }

func newKeyTable[V any](capacity int) *KeyTable[V] {
	return &KeyTable[V]{
		keys:  make([]int64, capacity),
		vals:  make([]V, capacity),
		epoch: make([]uint32, capacity),
		cur:   1,
		mask:  uint64(capacity - 1),
	}
}

// Reset empties the table in O(1), keeping its capacity for reuse.
func (t *KeyTable[V]) Reset() {
	t.cur++
	if t.cur == 0 {
		for i := range t.epoch {
			t.epoch[i] = 0
		}
		t.cur = 1
	}
	t.len = 0
}

// setEpochForTest forces the generation counter to cur, re-stamping the
// current generation's slots so they stay live; see AggTable.setEpochForTest.
func (t *KeyTable[V]) setEpochForTest(cur uint32) {
	for i := range t.epoch {
		if t.epoch[i] == t.cur {
			t.epoch[i] = cur
		}
	}
	t.cur = cur
}

// Len returns the number of keys in the table.
func (t *KeyTable[V]) Len() int { return t.len }

// Cap returns the slot capacity.
func (t *KeyTable[V]) Cap() int { return len(t.keys) }

// Insert adds key -> v, reporting whether the key was new.
func (t *KeyTable[V]) Insert(key int64, v V) bool {
	if t.len >= len(t.keys)*3/4 {
		t.Grows++
		t.rehash(len(t.keys) * 2)
	}
	i := hash64(uint64(key)) & t.mask
	for {
		if t.epoch[i] != t.cur {
			t.epoch[i] = t.cur
			t.keys[i] = key
			t.vals[i] = v
			t.len++
			return true
		}
		if t.keys[i] == key {
			return false
		}
		i = (i + 1) & t.mask
	}
}

// Add inserts key with the zero value, reporting whether it was new: a set's
// insert.
func (t *KeyTable[V]) Add(key int64) bool {
	var none V
	return t.Insert(key, none)
}

// find returns key's slot and whether the table holds it.
func (t *KeyTable[V]) find(key int64) (uint64, bool) {
	i := hash64(uint64(key)) & t.mask
	for t.epoch[i] == t.cur {
		if t.keys[i] == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// Probe returns the value key maps to and whether the table holds it.
func (t *KeyTable[V]) Probe(key int64) (V, bool) {
	if i, ok := t.find(key); ok {
		return t.vals[i], true
	}
	var none V
	return none, false
}

// Contains reports whether the table holds key.
func (t *KeyTable[V]) Contains(key int64) bool {
	_, ok := t.find(key)
	return ok
}

func (t *KeyTable[V]) rehash(capacity int) {
	old := *t
	*t = *newKeyTable[V](capacity)
	t.Grows = old.Grows
	for i := range old.keys {
		if old.epoch[i] == old.cur {
			t.Insert(old.keys[i], old.vals[i])
		}
	}
}
