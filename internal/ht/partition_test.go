package ht

import (
	"math/rand"
	"testing"
)

// TestPartitionerRouting checks every appended pair lands in the partition
// its key hashes to, across fan-outs including the degenerate single
// partition and requests that round up or clamp.
func TestPartitionerRouting(t *testing.T) {
	for _, tc := range []struct{ ask, parts int }{{-4, 1}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {256, 256}, {MaxPartitions + 1, MaxPartitions}} {
		p := NewPartitioner(tc.ask)
		if len(p.keys) != tc.parts {
			t.Fatalf("NewPartitioner(%d): %d partitions, want %d", tc.ask, len(p.keys), tc.parts)
		}
		rng := rand.New(rand.NewSource(1))
		n := 10_000
		for i := 0; i < n; i++ {
			p.Append(rng.Int63n(1<<40), int64(i))
		}
		p.Append(NullKey, 99) // the masked key routes like any other
		if got := p.Rows(); got != n+1 {
			t.Fatalf("parts=%d: Rows()=%d, want %d", tc.parts, got, n+1)
		}
		for i := 0; i < tc.parts; i++ {
			keys, vals := p.keys[i], p.vals[i]
			if len(keys) != len(vals) {
				t.Fatalf("parts=%d part=%d: %d keys vs %d vals", tc.parts, i, len(keys), len(vals))
			}
			for _, k := range keys {
				if got := p.PartitionOf(k); got != i {
					t.Fatalf("parts=%d: key %d buffered in partition %d, hashes to %d", tc.parts, k, i, got)
				}
			}
		}
	}
}

// TestPartitionerReset checks Reset keeps buffer capacity so the second
// identical fill performs no allocation.
func TestPartitionerReset(t *testing.T) {
	p := NewPartitioner(8)
	fill := func() {
		for i := int64(0); i < 4096; i++ {
			p.Append(i*2654435761, i)
		}
	}
	fill()
	if p.Rows() != 4096 {
		t.Fatalf("Rows()=%d after fill", p.Rows())
	}
	p.Reset()
	if p.Rows() != 0 {
		t.Fatalf("Rows()=%d after Reset", p.Rows())
	}
	allocs := testing.AllocsPerRun(10, func() {
		p.Reset()
		fill()
	})
	if allocs != 0 {
		t.Errorf("warm Reset+fill allocates %.1f per run, want 0", allocs)
	}
}

// TestPartitionedAggParity runs the two-pass flow — scatter, then fold each
// partition into one small recycled table — and checks the groups are
// bit-identical to a single AggTable over the same stream.
func TestPartitionedAggParity(t *testing.T) {
	const parts, n = 16, 30_000
	direct := NewAggTable(1, 1024)
	p := NewPartitioner(parts)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		k, v := rng.Int63n(5000), rng.Int63n(100)
		if i%5 == 0 {
			k = NullKey // masked tuples flow through both paths
		}
		direct.Add(direct.Lookup(k), 0, v)
		p.Append(k, v)
	}

	got := map[int64]int64{}
	small := NewAggTable(1, 2*5000/parts)
	var throwaway int64
	for part := 0; part < parts; part++ {
		small.Reset()
		small.AddPairs(p.keys[part], p.vals[part])
		throwaway += small.Acc(-1, 0)
		small.ForEach(func(key int64, s int) { got[key] = small.Acc(s, 0) })
	}

	want := map[int64]int64{}
	direct.ForEach(func(key int64, s int) { want[key] = direct.Acc(s, 0) })
	if len(got) != len(want) {
		t.Fatalf("%d partitioned groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("key %d: partitioned %d, direct %d", k, got[k], w)
		}
	}
	if throwaway != direct.Acc(-1, 0) {
		t.Errorf("throwaway sum %d, direct %d", throwaway, direct.Acc(-1, 0))
	}
}
