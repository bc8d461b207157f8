package vec

// This file implements the predicate-pullup kernels at the heart of SWOLE:
// value masking (Section III-A), masked key materialization for key masking
// (Section III-B), and the second loop of access merging (Section III-C).
// All of them replace a conditional access with a sequential one at the cost
// of touching every lane.

// SumMasked adds vals[i]*cmp[i] for every lane, the value-masking
// aggregation of Figure 3: non-qualifying values are multiplied by 0 instead
// of being skipped, so the read of vals is sequential and unconditional.
func SumMasked[T Number](vals []T, cmp []byte) int64 {
	if len(vals) == 0 {
		return 0
	}
	_ = cmp[len(vals)-1]
	var sum int64
	for i := range vals {
		sum += int64(vals[i]) * int64(cmp[i])
	}
	return sum
}

// SumProdMasked adds (a[i]*b[i])*cmp[i], the value-masked form of
// sum(r_a * r_b) used throughout the paper's microbenchmark.
func SumProdMasked[T Number](a, b []T, cmp []byte) int64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	_ = b[n-1]
	_ = cmp[n-1]
	var sum int64
	for i := 0; i < n; i++ {
		sum += int64(a[i]) * int64(b[i]) * int64(cmp[i])
	}
	return sum
}

// MaskKeys materializes group-by keys with masking (Figure 4, bottom): lanes
// whose predicate failed receive nullKey, which maps to the hash table's
// throwaway entry. The write is branch-free (conditional move).
func MaskKeys[T Number](keys []T, cmp []byte, nullKey int64, out []int64) {
	n := len(keys)
	if n == 0 {
		return
	}
	_ = cmp[n-1]
	_ = out[n-1]
	for i := 0; i < n; i++ {
		k := int64(keys[i])
		if cmp[i] == 0 {
			k = nullKey
		}
		out[i] = k
	}
}

// Widen copies a typed column tile into an int64 scratch tile, the
// unconditional sequential read used before hash lookups.
func Widen[T Number](vals []T, out []int64) {
	if len(vals) == 0 {
		return
	}
	_ = out[len(vals)-1]
	for i := range vals {
		out[i] = int64(vals[i])
	}
}

// SumProdTmp adds a[i]*tmp[i], the second access-merging loop of Figure 5:
// tmp already carries both the predicate outcome and the reused value.
func SumProdTmp[T Number](a []T, tmp []int64) int64 {
	if len(a) == 0 {
		return 0
	}
	_ = tmp[len(a)-1]
	var sum int64
	for i := range a {
		sum += int64(a[i]) * tmp[i]
	}
	return sum
}
