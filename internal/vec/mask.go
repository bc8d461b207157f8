package vec

// The second loop of access merging (Section III-C). The other
// predicate-pullup kernels, value masking (Section III-A) and masked key
// materialization for key masking (Section III-B), are the unrolled loops of
// unroll.go. Each replaces a conditional access with a sequential one at the
// cost of touching every lane.

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
