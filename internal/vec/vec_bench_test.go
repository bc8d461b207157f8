package vec

import (
	"math/rand"
	"testing"
)

// Primitive benchmarks for the tile kernels: these are the per-lane costs
// the cost model's read_seq / selvec / masked-arithmetic terms abstract.

func benchData(sel int) (vals []int32, other []int32, cmp []byte) {
	rng := rand.New(rand.NewSource(1))
	vals = make([]int32, TileSize)
	other = make([]int32, TileSize)
	cmp = make([]byte, TileSize)
	for i := range vals {
		vals[i] = int32(rng.Intn(100))
		other[i] = int32(rng.Intn(100))
		if rng.Intn(100) < sel {
			cmp[i] = 1
		}
	}
	return
}

var sinkI64 int64
var sinkInt int

func BenchmarkCmpConstLT(b *testing.B) {
	vals, _, cmp := benchData(50)
	b.SetBytes(TileSize * 4)
	for i := 0; i < b.N; i++ {
		CmpConstLTU(vals, 50, cmp)
	}
}

func BenchmarkSelFromCmp(b *testing.B) {
	for _, sel := range []int{1, 50, 99} {
		_, _, cmp := benchData(sel)
		idx := make([]int32, TileSize)
		b.Run("nobranch/sel"+itoa(sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt += SelFromCmpNoBranch(cmp, idx)
			}
		})
		b.Run("adaptive/sel"+itoa(sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, _ := SelFromCmpAdaptive(cmp, idx)
				sinkInt += n
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
