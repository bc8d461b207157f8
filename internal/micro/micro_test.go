package micro

import (
	"testing"
)

// The tests below hold the hand-written kernels to first-principles
// references; internal/harness's TestFigureSeriesAgree holds the engine's
// series of every figure to these kernels.

func testData(t *testing.T, nr, ns, ccard int) *Data {
	t.Helper()
	return Generate(Config{NR: nr, NS: ns, CCard: ccard, Seed: 7})
}

// refQ1 computes micro Q1 tuple-at-a-time from first principles.
func refQ1(d *Data, op Op, sel int) int64 {
	var sum int64
	for i := range d.X {
		if int(d.X[i]) < sel && d.Y[i] == 1 {
			if op == OpMul {
				sum += int64(d.A[i]) * int64(d.B[i])
			} else {
				sum += int64(d.A[i]) / int64(d.B[i])
			}
		}
	}
	return sum
}

func TestQ1AllStrategiesAgree(t *testing.T) {
	d := testData(t, 10_000, 100, 10)
	for _, op := range []Op{OpMul, OpDiv} {
		for _, sel := range []int{0, 1, 13, 50, 99, 100} {
			want := refQ1(d, op, sel)
			if got := Q1DataCentric(d, op, sel); got != want {
				t.Errorf("Q1DataCentric(op=%v,sel=%d)=%d, want %d", op, sel, got, want)
			}
			if got := Q1ROF(d, op, sel); got != want {
				t.Errorf("Q1ROF(op=%v,sel=%d)=%d, want %d", op, sel, got, want)
			}
		}
	}
}

func TestQ1WithYHalf(t *testing.T) {
	// The r_y = 1 conjunct must actually filter when r_y is {0,1}.
	d := Generate(Config{NR: 10_000, NS: 10, CCard: 10, Seed: 3, YHalf: true})
	ones := 0
	for _, y := range d.Y {
		if y == 1 {
			ones++
		}
	}
	if ones == 0 || ones == len(d.Y) {
		t.Fatal("YHalf did not generate a mixed r_y")
	}
	want := refQ1(d, OpMul, 50)
	for name, got := range map[string]int64{
		"datacentric": Q1DataCentric(d, OpMul, 50),
		"rof":         Q1ROF(d, OpMul, 50),
	} {
		if got != want {
			t.Errorf("%s=%d, want %d", name, got, want)
		}
	}
}

// refQ2 computes micro Q2 with a plain map.
func refQ2(d *Data, sel int) map[int64]int64 {
	out := map[int64]int64{}
	for i := range d.X {
		if int(d.X[i]) < sel && d.Y[i] == 1 {
			out[int64(d.C[i])] += int64(d.A[i]) * int64(d.B[i])
		}
	}
	return out
}

func mapsEqual(a, b map[int64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestQ2AllStrategiesAgree(t *testing.T) {
	for _, ccard := range []int{3, 50, 3000} {
		d := testData(t, 20_000, 100, ccard)
		for _, sel := range []int{0, 7, 50, 100} {
			want := refQ2(d, sel)
			for name, tab := range map[string]map[int64]int64{
				"datacentric": AggToMap(Q2DataCentric(d, sel)),
			} {
				if !mapsEqual(tab, want) {
					t.Errorf("Q2 %s (card=%d, sel=%d): %d groups vs %d expected",
						name, ccard, sel, len(tab), len(want))
				}
			}
		}
	}
}

// refQ3 computes micro Q3 directly.
func refQ3(d *Data, col Col, sel int) int64 {
	var sum int64
	for i := range d.X {
		if int(d.X[i]) < sel && d.Y[i] == 1 {
			o := int64(d.A[i])
			if col == ColY {
				o = int64(d.Y[i])
			}
			sum += int64(d.X[i]) * o
		}
	}
	return sum
}

func TestQ3AllStrategiesAgree(t *testing.T) {
	d := testData(t, 10_000, 10, 10)
	for _, col := range []Col{ColA, ColY} {
		for _, sel := range []int{0, 13, 55, 100} {
			want := refQ3(d, col, sel)
			for name, got := range map[string]int64{
				"datacentric": Q3DataCentric(d, col, sel),
				"am":          Q3AccessMerging(d, col, sel),
			} {
				if got != want {
					t.Errorf("Q3 %s (col=%v, sel=%d)=%d, want %d", name, col, sel, got, want)
				}
			}
		}
	}
}

func TestQ3AccessMergingWithYHalf(t *testing.T) {
	// The fused y*(y==1) trick must stay correct when y actually varies.
	d := Generate(Config{NR: 8_000, NS: 10, CCard: 10, Seed: 9, YHalf: true})
	for _, col := range []Col{ColA, ColY} {
		for _, sel := range []int{20, 80} {
			want := refQ3(d, col, sel)
			if got := Q3AccessMerging(d, col, sel); got != want {
				t.Errorf("AM (col=%v, sel=%d)=%d, want %d", col, sel, got, want)
			}
		}
	}
}

// refQ4 computes micro Q4 directly.
func refQ4(d *Data, sel1, sel2 int) int64 {
	qual := make([]bool, d.Cfg.NS)
	for i := range d.SX {
		qual[d.SPK[i]] = int(d.SX[i]) < sel2
	}
	var sum int64
	for i := range d.X {
		if int(d.X[i]) < sel1 && d.Y[i] == 1 && qual[d.FK[i]] {
			sum += int64(d.A[i]) * int64(d.B[i])
		}
	}
	return sum
}

func TestQ4AllStrategiesAgree(t *testing.T) {
	d := testData(t, 20_000, 500, 10)
	for _, sel1 := range []int{0, 10, 90, 100} {
		for _, sel2 := range []int{0, 10, 90, 100} {
			want := refQ4(d, sel1, sel2)
			for name, got := range map[string]int64{
				"datacentric": Q4DataCentric(d, sel1, sel2),
				"hybrid":      Q4Hybrid(d, sel1, sel2),
			} {
				if got != want {
					t.Errorf("Q4 %s (sel1=%d, sel2=%d)=%d, want %d", name, sel1, sel2, got, want)
				}
			}
		}
	}
}

// refQ5 computes micro Q5 directly.
func refQ5(d *Data, sel int) map[int64]int64 {
	qual := make([]bool, d.Cfg.NS)
	for i := range d.SX {
		qual[d.SPK[i]] = int(d.SX[i]) < sel
	}
	out := map[int64]int64{}
	for i := range d.FK {
		if qual[d.FK[i]] {
			out[int64(d.FK[i])] += int64(d.A[i]) * int64(d.B[i])
		}
	}
	return out
}

func TestQ5AllStrategiesAgree(t *testing.T) {
	for _, ns := range []int{50, 2000} {
		d := testData(t, 20_000, ns, 10)
		for _, sel := range []int{0, 25, 75, 100} {
			want := refQ5(d, sel)
			for name, tab := range map[string]map[int64]int64{
				"datacentric": AggToMap(Q5DataCentric(d, sel)),
				"hybrid":      AggToMap(Q5Hybrid(d, sel)),
			} {
				if !mapsEqual(tab, want) {
					t.Errorf("Q5 %s (ns=%d, sel=%d): %d groups vs %d expected",
						name, ns, sel, len(tab), len(want))
				}
			}
		}
	}
}

func TestQ5UnmatchedQualifyingKeysExcluded(t *testing.T) {
	// An S key that qualifies but has no R tuples must not appear.
	d := testData(t, 100, 5000, 10) // far more S keys than R rows
	got := AggToMap(Q5DataCentric(d, 100))
	if len(got) > 100 {
		t.Errorf("groupjoin emitted %d groups for 100 probe rows", len(got))
	}
	want := refQ5(d, 100)
	if !mapsEqual(got, want) {
		t.Error("datacentric mismatch on sparse probe")
	}
	if !mapsEqual(AggToMap(Q5Hybrid(d, 100)), want) {
		t.Error("hybrid mismatch on sparse probe")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{NR: 1000, NS: 50, CCard: 10, Seed: 42})
	b := Generate(Config{NR: 1000, NS: 50, CCard: 10, Seed: 42})
	for i := range a.X {
		if a.X[i] != b.X[i] || a.C[i] != b.C[i] || a.FK[i] != b.FK[i] {
			t.Fatal("generator is not deterministic")
		}
	}
	c := Generate(Config{NR: 1000, NS: 50, CCard: 10, Seed: 43})
	same := true
	for i := range a.X {
		if a.X[i] != c.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGenerateRanges(t *testing.T) {
	d := Generate(Config{NR: 5000, NS: 100, CCard: 7, Seed: 1})
	for i := range d.A {
		if d.A[i] < 1 || d.A[i] > 100 || d.B[i] < 1 || d.B[i] > 100 {
			t.Fatal("a/b out of [1,100]")
		}
		if d.X[i] < 0 || d.X[i] > 99 {
			t.Fatal("x out of [0,100)")
		}
		if d.Y[i] != 1 {
			t.Fatal("default r_y must be constant 1")
		}
		if d.C[i] < 0 || int(d.C[i]) >= 7 {
			t.Fatal("c out of cardinality range")
		}
		if d.FK[i] < 0 || int(d.FK[i]) >= 100 {
			t.Fatal("fk out of range")
		}
	}
	for i, pk := range d.SPK {
		if int(pk) != i {
			t.Fatal("s_pk must be dense")
		}
	}
	// Uniformity smoke test: selectivity of x < 50 should be ~50%.
	cnt := 0
	for _, x := range d.X {
		if x < 50 {
			cnt++
		}
	}
	if cnt < 2200 || cnt > 2800 {
		t.Errorf("x<50 selected %d/5000; far from uniform", cnt)
	}
}

func TestSelectivityEndpoints(t *testing.T) {
	// sel=0 selects nothing; sel=100 selects everything.
	d := testData(t, 3000, 20, 5)
	if Q1DataCentric(d, OpMul, 0) != 0 {
		t.Error("sel=0 must sum to 0")
	}
	var all int64
	for i := range d.A {
		all += int64(d.A[i]) * int64(d.B[i])
	}
	if got := Q1ROF(d, OpMul, 100); got != all {
		t.Errorf("sel=100: got %d, want %d", got, all)
	}
}

func TestOpColStrings(t *testing.T) {
	if OpMul.String() != "*" || OpDiv.String() != "/" || ColA.String() != "r_a" || ColY.String() != "r_y" {
		t.Error("bad parameter names")
	}
}
