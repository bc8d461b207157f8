package vec

// This file holds the unrolled, width-specialized kernel variants. Go's
// compiler auto-vectorizes very little (the paper's Go substitution note),
// so the specialization the paper gets from generated C++ is done by hand
// here: every hot loop is instantiated per lane width by the generic
// machinery, processes 64-element sub-tiles through full slice expressions
// (so bounds checks hoist out of the inner loop), and reductions carry four
// independent accumulators to break the loop-carried dependency chain.
// Every variant tolerates zero-length input and short tails.

// SubTile is the unroll granularity of the specialized kernels. 64 lanes of
// the widest type span eight cache lines — enough work to amortize the loop
// overhead, small enough that four live accumulators cover the FMA latency.
const SubTile = 64

// WidenU copies a typed tile into int64 scratch, unrolled over sub-tiles.
// The width-specialized instantiations replace the per-element Kind switch
// the interpreter would otherwise run inside the loop.
func WidenU[T Number](vals []T, out []int64) {
	n := len(vals)
	if n == 0 {
		return
	}
	_ = out[n-1]
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		v := vals[i : i+SubTile : i+SubTile]
		o := out[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 4 {
			o[j] = int64(v[j])
			o[j+1] = int64(v[j+1])
			o[j+2] = int64(v[j+2])
			o[j+3] = int64(v[j+3])
		}
	}
	for ; i < n; i++ {
		out[i] = int64(vals[i])
	}
}

// SumMaskedU is the unrolled value-masking aggregation: vals[i]*cmp[i]
// summed into four accumulators.
func SumMaskedU[T Number](vals []T, cmp []byte) int64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	_ = cmp[n-1]
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		v := vals[i : i+SubTile : i+SubTile]
		m := cmp[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 4 {
			s0 += int64(v[j]) * int64(m[j])
			s1 += int64(v[j+1]) * int64(m[j+1])
			s2 += int64(v[j+2]) * int64(m[j+2])
			s3 += int64(v[j+3]) * int64(m[j+3])
		}
	}
	for ; i < n; i++ {
		s0 += int64(vals[i]) * int64(cmp[i])
	}
	return s0 + s1 + s2 + s3
}

// SumProdMaskedU is the unrolled masked product aggregation:
// (a[i]*b[i])*cmp[i] summed into four accumulators. The factors may be
// stored at different widths; each is widened in the loop.
func SumProdMaskedU[A, B Number](a []A, b []B, cmp []byte) int64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	_ = b[n-1]
	_ = cmp[n-1]
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		av := a[i : i+SubTile : i+SubTile]
		bv := b[i : i+SubTile : i+SubTile]
		m := cmp[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 4 {
			s0 += int64(av[j]) * int64(bv[j]) * int64(m[j])
			s1 += int64(av[j+1]) * int64(bv[j+1]) * int64(m[j+1])
			s2 += int64(av[j+2]) * int64(bv[j+2]) * int64(m[j+2])
			s3 += int64(av[j+3]) * int64(bv[j+3]) * int64(m[j+3])
		}
	}
	for ; i < n; i++ {
		s0 += int64(a[i]) * int64(b[i]) * int64(cmp[i])
	}
	return s0 + s1 + s2 + s3
}

// MaskKeysU materializes masked group-by keys (key masking, Section III-B)
// unrolled over sub-tiles. Failed lanes get nullKey via a conditional move;
// the inner loop has no branches.
func MaskKeysU[T Number](keys []T, cmp []byte, nullKey int64, out []int64) {
	n := len(keys)
	if n == 0 {
		return
	}
	_ = cmp[n-1]
	_ = out[n-1]
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		kv := keys[i : i+SubTile : i+SubTile]
		m := cmp[i : i+SubTile : i+SubTile]
		o := out[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j++ {
			k := int64(kv[j])
			if m[j] == 0 {
				k = nullKey
			}
			o[j] = k
		}
	}
	for ; i < n; i++ {
		k := int64(keys[i])
		if cmp[i] == 0 {
			k = nullKey
		}
		out[i] = k
	}
}

// CmpConstU evaluates vals[i] op c into out at the tile's native width,
// dispatching once per tile to an unrolled branch-free loop.
func CmpConstU[T Number](op CmpOp, vals []T, c T, out []byte) {
	switch op {
	case LT:
		CmpConstLTU(vals, c, out)
	case LE:
		CmpConstLEU(vals, c, out)
	case GT:
		CmpConstGTU(vals, c, out)
	case GE:
		CmpConstGEU(vals, c, out)
	case EQ:
		CmpConstEQU(vals, c, out)
	case NE:
		CmpConstNEU(vals, c, out)
	}
}

// CmpConstLTU writes out[i] = (vals[i] < c), unrolled.
func CmpConstLTU[T Number](vals []T, c T, out []byte) {
	n := len(vals)
	if n == 0 {
		return
	}
	_ = out[n-1]
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		v := vals[i : i+SubTile : i+SubTile]
		o := out[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 4 {
			o[j] = b2i(v[j] < c)
			o[j+1] = b2i(v[j+1] < c)
			o[j+2] = b2i(v[j+2] < c)
			o[j+3] = b2i(v[j+3] < c)
		}
	}
	for ; i < n; i++ {
		out[i] = b2i(vals[i] < c)
	}
}

// CmpConstLEU writes out[i] = (vals[i] <= c), unrolled.
func CmpConstLEU[T Number](vals []T, c T, out []byte) {
	n := len(vals)
	if n == 0 {
		return
	}
	_ = out[n-1]
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		v := vals[i : i+SubTile : i+SubTile]
		o := out[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 4 {
			o[j] = b2i(v[j] <= c)
			o[j+1] = b2i(v[j+1] <= c)
			o[j+2] = b2i(v[j+2] <= c)
			o[j+3] = b2i(v[j+3] <= c)
		}
	}
	for ; i < n; i++ {
		out[i] = b2i(vals[i] <= c)
	}
}

// CmpConstGTU writes out[i] = (vals[i] > c), unrolled.
func CmpConstGTU[T Number](vals []T, c T, out []byte) {
	n := len(vals)
	if n == 0 {
		return
	}
	_ = out[n-1]
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		v := vals[i : i+SubTile : i+SubTile]
		o := out[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 4 {
			o[j] = b2i(v[j] > c)
			o[j+1] = b2i(v[j+1] > c)
			o[j+2] = b2i(v[j+2] > c)
			o[j+3] = b2i(v[j+3] > c)
		}
	}
	for ; i < n; i++ {
		out[i] = b2i(vals[i] > c)
	}
}

// CmpConstGEU writes out[i] = (vals[i] >= c), unrolled.
func CmpConstGEU[T Number](vals []T, c T, out []byte) {
	n := len(vals)
	if n == 0 {
		return
	}
	_ = out[n-1]
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		v := vals[i : i+SubTile : i+SubTile]
		o := out[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 4 {
			o[j] = b2i(v[j] >= c)
			o[j+1] = b2i(v[j+1] >= c)
			o[j+2] = b2i(v[j+2] >= c)
			o[j+3] = b2i(v[j+3] >= c)
		}
	}
	for ; i < n; i++ {
		out[i] = b2i(vals[i] >= c)
	}
}

// CmpConstEQU writes out[i] = (vals[i] == c), unrolled.
func CmpConstEQU[T Number](vals []T, c T, out []byte) {
	n := len(vals)
	if n == 0 {
		return
	}
	_ = out[n-1]
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		v := vals[i : i+SubTile : i+SubTile]
		o := out[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 4 {
			o[j] = b2i(v[j] == c)
			o[j+1] = b2i(v[j+1] == c)
			o[j+2] = b2i(v[j+2] == c)
			o[j+3] = b2i(v[j+3] == c)
		}
	}
	for ; i < n; i++ {
		out[i] = b2i(vals[i] == c)
	}
}

// CmpConstNEU writes out[i] = (vals[i] != c), unrolled.
func CmpConstNEU[T Number](vals []T, c T, out []byte) {
	n := len(vals)
	if n == 0 {
		return
	}
	_ = out[n-1]
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		v := vals[i : i+SubTile : i+SubTile]
		o := out[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 4 {
			o[j] = b2i(v[j] != c)
			o[j+1] = b2i(v[j+1] != c)
			o[j+2] = b2i(v[j+2] != c)
			o[j+3] = b2i(v[j+3] != c)
		}
	}
	for ; i < n; i++ {
		out[i] = b2i(vals[i] != c)
	}
}

// CmpConstBetweenU writes out[i] = (lo <= vals[i] <= hi), unrolled.
func CmpConstBetweenU[T Number](vals []T, lo, hi T, out []byte) {
	n := len(vals)
	if n == 0 {
		return
	}
	_ = out[n-1]
	i := 0
	for ; i+SubTile <= n; i += SubTile {
		v := vals[i : i+SubTile : i+SubTile]
		o := out[i : i+SubTile : i+SubTile]
		for j := 0; j < SubTile; j += 2 {
			o[j] = b2i(v[j] >= lo) & b2i(v[j] <= hi)
			o[j+1] = b2i(v[j+1] >= lo) & b2i(v[j+1] <= hi)
		}
	}
	for ; i < n; i++ {
		out[i] = b2i(vals[i] >= lo) & b2i(vals[i] <= hi)
	}
}
