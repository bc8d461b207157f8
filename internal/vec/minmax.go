package vec

import "math"

// Masked min/max kernels. Section III-A notes that aggregation functions
// other than sum "may require minor additional bookkeeping" under value
// masking: a masked lane cannot contribute 0 (0 may win a min/max), so
// masked lanes are arithmetically replaced by the aggregate's identity
// element (+inf for min, -inf for max) with a branch-free select.

// MinIdentity is the value masked lanes assume in MinMasked.
const MinIdentity = int64(math.MaxInt64)

// MaxIdentity is the value masked lanes assume in MaxMasked.
const MaxIdentity = int64(math.MinInt64)

// MinMasked returns the minimum of vals[i] over lanes with cmp[i] == 1,
// or MinIdentity if no lane qualifies. The loop is branch-free: masked
// lanes are replaced by the identity via conditional move, preserving the
// sequential access pattern of value masking.
func MinMasked[T Number](vals []T, cmp []byte) int64 {
	_ = cmp[len(vals)-1]
	best := MinIdentity
	for i := range vals {
		v := int64(vals[i])
		if cmp[i] == 0 {
			v = MinIdentity
		}
		if v < best {
			best = v
		}
	}
	return best
}

// MaxMasked returns the maximum of vals[i] over lanes with cmp[i] == 1,
// or MaxIdentity if no lane qualifies.
func MaxMasked[T Number](vals []T, cmp []byte) int64 {
	_ = cmp[len(vals)-1]
	best := MaxIdentity
	for i := range vals {
		v := int64(vals[i])
		if cmp[i] == 0 {
			v = MaxIdentity
		}
		if v > best {
			best = v
		}
	}
	return best
}
