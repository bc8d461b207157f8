// Package micro implements the paper's microbenchmark (Figure 7): the
// 100M-tuple table R and dimension table S, and the hand-written baselines
// of queries Q1-Q5 that the engine cannot run — data-centric, ROF, access
// merging and the hash-join hybrid — as the paper hand-coded each strategy
// in C. Every other series of Figures 8-12 is the engine's own plan over
// the same slices (internal/harness).
//
// Schema (Figure 7a):
//
//	R: r_a int8 (card 100), r_b int8 (card 100), r_c int8..int32
//	   (card 10 / 1K / 100K / 10M), r_x int8 (card 100), r_y int8,
//	   r_fk int32 -> S
//	S: s_pk int32 (dense 0..|S|), s_x int8 (card 100)
//
// All values are uniformly distributed (the paper's worst case for hash
// tables). One documented deviation: the paper's figures sweep selectivity
// 0-100% on the x-axis while every query carries the conjunct "and r_y=1";
// for SEL to *be* the selectivity, r_y is generated as the constant 1, so
// the conjunct exercises compound-predicate evaluation without filtering.
// Set YHalf to generate r_y uniform over {0,1} instead.
package micro

// splitmix64 is the deterministic PRNG used by all generators in this
// repository: tiny state, excellent distribution, sequence-stable across
// Go versions (unlike math/rand's default source).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// Config sizes a microbenchmark dataset.
type Config struct {
	NR    int  // tuples in R (paper: 100M)
	NS    int  // tuples in S (paper: 1K or 1M)
	CCard int  // cardinality of group-by key r_c (paper: 10 .. 10M)
	YHalf bool // generate r_y in {0,1} instead of constant 1
	Seed  uint64
}

// DefaultConfig returns a laptop-scale configuration preserving the
// paper's regimes (see DESIGN.md section 2, substitution 5).
func DefaultConfig() Config {
	return Config{NR: 2_000_000, NS: 1_000, CCard: 1_000, Seed: 1}
}

// Data is a generated microbenchmark dataset. Columns are exposed as typed
// slices because the hand-specialized kernels, like generated code, are
// written against the physical schema, and the engine wraps them without
// copying.
type Data struct {
	Cfg Config

	// R columns. A and B are in [1,100] so they can be divisors.
	A, B []int8
	// X is in [0,100): the predicate r_x < SEL selects SEL percent.
	X []int8
	// Y is 1 (or {0,1} with YHalf).
	Y []int8
	// C is the group-by key in [0, CCard), widened to int32 for all
	// cardinalities; kernels that exploit narrow keys re-narrow locally.
	C []int32
	// FK indexes into S: S's primary key is dense, so r_fk doubles as the
	// foreign-key index position (Section III-D).
	FK []int32

	// S columns.
	SPK []int32
	SX  []int8
}

// Generate builds a dataset deterministically from cfg.
func Generate(cfg Config) *Data {
	rng := splitmix64(cfg.Seed)
	d := &Data{
		Cfg: cfg,
		A:   make([]int8, cfg.NR),
		B:   make([]int8, cfg.NR),
		X:   make([]int8, cfg.NR),
		Y:   make([]int8, cfg.NR),
		C:   make([]int32, cfg.NR),
		FK:  make([]int32, cfg.NR),
		SPK: make([]int32, cfg.NS),
		SX:  make([]int8, cfg.NS),
	}
	for i := 0; i < cfg.NR; i++ {
		d.A[i] = int8(rng.intn(100) + 1)
		d.B[i] = int8(rng.intn(100) + 1)
		d.X[i] = int8(rng.intn(100))
		if cfg.YHalf {
			d.Y[i] = int8(rng.intn(2))
		} else {
			d.Y[i] = 1
		}
		d.C[i] = int32(rng.intn(cfg.CCard))
		d.FK[i] = int32(rng.intn(cfg.NS))
	}
	for i := 0; i < cfg.NS; i++ {
		d.SPK[i] = int32(i)
		d.SX[i] = int8(rng.intn(100))
	}
	return d
}

// Op selects the arithmetic operator of micro Q1 (Figure 8's OP
// substitution parameter).
type Op int

// Q1 operators.
const (
	OpMul Op = iota // memory-bound configuration (Figure 8a)
	OpDiv           // compute-bound configuration (Figure 8b)
)

// String returns the SQL spelling.
func (o Op) String() string {
	if o == OpMul {
		return "*"
	}
	return "/"
}

// Col selects the reused attribute of micro Q3 (Figure 10's COL
// substitution parameter).
type Col int

// Q3 column choices.
const (
	ColA Col = iota // sum(r_x * r_a): only r_x reused (Figure 10a)
	ColY            // sum(r_x * r_y): both predicate attributes reused (Figure 10b)
)

// String names the column.
func (c Col) String() string {
	if c == ColA {
		return "r_a"
	}
	return "r_y"
}
