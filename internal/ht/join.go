package ht

// JoinTable maps a unique 64-bit join key to the build-side row that carries
// it. Every join in the paper's workloads is a foreign-key/primary-key join,
// so keys on the build side are unique; duplicate inserts keep the first row
// and report false.
//
// Like AggTable, a JoinTable is built to be recycled: Reset invalidates
// every slot by bumping an epoch stamp, so steady-state workloads rebuild
// into the same capacity with no allocation and no O(capacity) clear.
type JoinTable struct {
	keys  []int64
	rows  []int32
	epoch []uint32 // slot i holds a key iff epoch[i] == cur
	cur   uint32
	len   int
	mask  uint64

	// Grows counts capacity doublings triggered by Insert; 0 after a scan
	// means the preallocation hint was sufficient.
	Grows uint64
}

// NewJoinTable returns a join table with room for about hint keys.
// Non-positive hints get the minimum capacity.
func NewJoinTable(hint int) *JoinTable {
	capacity := hintCap(hint)
	return &JoinTable{
		keys:  make([]int64, capacity),
		rows:  make([]int32, capacity),
		epoch: make([]uint32, capacity),
		cur:   1,
		mask:  uint64(capacity - 1),
	}
}

// Reset empties the table in O(1), keeping its capacity for reuse.
func (t *JoinTable) Reset() {
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
func (t *JoinTable) setEpochForTest(cur uint32) {
	for i := range t.epoch {
		if t.epoch[i] == t.cur {
			t.epoch[i] = cur
		}
	}
	t.cur = cur
}

// Len returns the number of keys in the table.
func (t *JoinTable) Len() int { return t.len }

// Cap returns the slot capacity.
func (t *JoinTable) Cap() int { return len(t.keys) }

// Insert adds key -> row, reporting whether the key was new.
func (t *JoinTable) Insert(key int64, row int32) bool {
	if t.len >= len(t.keys)*3/4 {
		t.Grows++
		t.rehash(len(t.keys) * 2)
	}
	i := hash64(uint64(key)) & t.mask
	for {
		if t.epoch[i] != t.cur {
			t.epoch[i] = t.cur
			t.keys[i] = key
			t.rows[i] = row
			t.len++
			return true
		}
		if t.keys[i] == key {
			return false
		}
		i = (i + 1) & t.mask
	}
}

// Probe returns the build row matching key and whether a match exists.
func (t *JoinTable) Probe(key int64) (int32, bool) {
	i := hash64(uint64(key)) & t.mask
	for {
		if t.epoch[i] != t.cur {
			return 0, false
		}
		if t.keys[i] == key {
			return t.rows[i], true
		}
		i = (i + 1) & t.mask
	}
}

func (t *JoinTable) rehash(capacity int) {
	old := *t
	t.keys = make([]int64, capacity)
	t.rows = make([]int32, capacity)
	t.epoch = make([]uint32, capacity)
	t.cur = 1
	t.mask = uint64(capacity - 1)
	t.len = 0
	for i := range old.keys {
		if old.epoch[i] == old.cur {
			t.Insert(old.keys[i], old.rows[i])
		}
	}
}

// SetTable is a set of 64-bit keys, the hash-based semijoin structure that
// positional bitmaps replace in SWOLE (Section III-D). It resets by epoch
// like the other tables.
type SetTable struct {
	keys  []int64
	epoch []uint32 // slot i holds a key iff epoch[i] == cur
	cur   uint32
	len   int
	mask  uint64

	// Grows counts capacity doublings triggered by Insert.
	Grows uint64
}

// NewSetTable returns a set with room for about hint keys. Non-positive
// hints get the minimum capacity.
func NewSetTable(hint int) *SetTable {
	capacity := hintCap(hint)
	return &SetTable{
		keys:  make([]int64, capacity),
		epoch: make([]uint32, capacity),
		cur:   1,
		mask:  uint64(capacity - 1),
	}
}

// Reset empties the set in O(1), keeping its capacity for reuse.
func (t *SetTable) Reset() {
	t.cur++
	if t.cur == 0 {
		for i := range t.epoch {
			t.epoch[i] = 0
		}
		t.cur = 1
	}
	t.len = 0
}

// Len returns the number of keys in the set.
func (t *SetTable) Len() int { return t.len }

// Insert adds key, reporting whether it was new.
func (t *SetTable) Insert(key int64) bool {
	if t.len >= len(t.keys)*3/4 {
		t.Grows++
		t.rehash(len(t.keys) * 2)
	}
	i := hash64(uint64(key)) & t.mask
	for {
		if t.epoch[i] != t.cur {
			t.epoch[i] = t.cur
			t.keys[i] = key
			t.len++
			return true
		}
		if t.keys[i] == key {
			return false
		}
		i = (i + 1) & t.mask
	}
}

// Contains reports whether key is in the set.
func (t *SetTable) Contains(key int64) bool {
	i := hash64(uint64(key)) & t.mask
	for {
		if t.epoch[i] != t.cur {
			return false
		}
		if t.keys[i] == key {
			return true
		}
		i = (i + 1) & t.mask
	}
}

func (t *SetTable) rehash(capacity int) {
	old := *t
	t.keys = make([]int64, capacity)
	t.epoch = make([]uint32, capacity)
	t.cur = 1
	t.mask = uint64(capacity - 1)
	t.len = 0
	for i := range old.keys {
		if old.epoch[i] == old.cur {
			t.Insert(old.keys[i])
		}
	}
}
