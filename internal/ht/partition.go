package ht

// Partitioner buffers (key, value) pairs in one of a power-of-two number of
// partitions chosen by the top bits of the key's hash: the scatter of a
// radix-partitioned aggregation, in which a second pass would fold each
// partition in a table small enough to stay in cache. The engine runs no
// such aggregation (every group table is folded in place); the partitioner
// remains as the measured price of the scatter itself, benchmark/'s
// ht.scatter_ns_per_row rung, against which a radix technique would be
// weighed.
type Partitioner struct {
	shift uint
	keys  [][]int64
	vals  [][]int64
}

// MaxPartitions bounds the fan-out.
const MaxPartitions = 1024

// NewPartitioner returns a partitioner with parts partitions, rounded up to
// a power of two and clamped to [1, MaxPartitions].
func NewPartitioner(parts int) *Partitioner {
	shift, n := uint(64), 1
	for n < min(parts, MaxPartitions) {
		shift, n = shift-1, n*2
	}
	return &Partitioner{shift: shift, keys: make([][]int64, n), vals: make([][]int64, n)}
}

// Append buffers one pair in key's partition.
func (p *Partitioner) Append(key, val int64) {
	i := p.PartitionOf(key)
	p.keys[i] = append(p.keys[i], key)
	p.vals[i] = append(p.vals[i], val)
}

// PartitionOf returns the partition key routes to. With one partition the
// shift is 64, which Go defines to yield 0.
func (p *Partitioner) PartitionOf(key int64) int { return int(hash64(uint64(key)) >> p.shift) }

// Rows returns the number of buffered pairs.
func (p *Partitioner) Rows() int {
	n := 0
	for _, k := range p.keys {
		n += len(k)
	}
	return n
}

// Reset drops every buffered pair and keeps the capacity, so a refill of the
// same size allocates nothing.
func (p *Partitioner) Reset() {
	for i := range p.keys {
		p.keys[i], p.vals[i] = p.keys[i][:0], p.vals[i][:0]
	}
}
