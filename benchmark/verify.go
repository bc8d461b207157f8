package main

import (
	"fmt"
	"time"
)

// Correctness. The interpreted volcano engine, reached through DB.Query,
// is the oracle. For defaultSeed its answers are stored in golden.json;
// for any other seed the oracle itself is run. The compiled engine never
// produces an expected answer.

const oracleSamplePasses = 2

// checker supplies expected answers: from the golden file where it has
// them, from the oracle otherwise.
type checker struct {
	gold *golden
	// alwaysOracle runs the oracle for a statement even when the golden
	// file answers for it, and then compares the two (-verify, the traced
	// run) or records the answer (-regen-golden).
	alwaysOracle bool
	// allPasses extends the oracle to every adhoc_compile pass. Without
	// it, where the golden file has no entry, the oracle covers the first
	// oracleSamplePasses passes of a pass loop: adhoc_compile's statements
	// number in the thousands. Every other statement is still checked for
	// errors and interpreter fallback.
	allPasses bool
	// recording, when non-nil, receives every oracle answer under its
	// golden key (-regen-golden).
	recording *golden
	// oracleDur is the time DB.Query took for each statement it ran, and
	// oracleTime their sum.
	oracleDur  map[*stmt]time.Duration
	oracleTime time.Duration
}

// newChecker returns a checker that asks the oracle only where the golden
// file has no answer.
func newChecker(gold *golden) *checker {
	return &checker{gold: gold, oracleDur: map[*stmt]time.Duration{}}
}

// oracle runs one statement on the interpreter.
func (c *checker) oracle(e *env, s *stmt) (answer, error) {
	t0 := time.Now()
	res, err := e.db.Query(s.sql)
	d := time.Since(t0)
	c.oracleDur[s] = d
	c.oracleTime += d
	if err != nil {
		return answer{}, fmt.Errorf("oracle: %s: %w", s.id, err)
	}
	return digestRows(res.Rows()), nil
}

// expected returns the oracle's answer for one unit (a statement, or for
// adhoc_compile a pass) from the golden file, or by running run.
func (c *checker) expected(seed uint64, key string, run func() (answer, error)) (answer, error) {
	g, hit := c.gold.lookup(seed, key)
	if hit && !c.alwaysOracle {
		return g, nil
	}
	a, err := run()
	if err != nil {
		return a, err
	}
	if hit && a != g {
		return a, fmt.Errorf("golden.json is stale: %s holds %v, the oracle answers %v", key, g, a)
	}
	if c.recording != nil {
		c.recording.Entries[key] = a.String()
	}
	return a, nil
}

// expectStmt fills in s.want for the table state named state.
func (c *checker) expectStmt(e *env, state string, s *stmt) error {
	a, err := c.expected(e.w.seed, goldenKey(e.w.name, state, s.id, s.sql), func() (answer, error) {
		return c.oracle(e, s)
	})
	s.want, s.wantState = a, state
	return err
}

// expectInitial fills in the expected answer of every distinct statement
// at the initial table state.
func (c *checker) expectInitial(e *env) error {
	for _, s := range e.w.distinct {
		if err := c.expectStmt(e, "init", s); err != nil {
			return err
		}
	}
	return nil
}

// expectPasses prepares adhoc_compile's expectations for n measured
// passes starting at pass from: the folded answer of each pass, by
// measured index. Other workloads replay their distinct statements, which
// expectInitial covered, and get nil.
func (c *checker) expectPasses(e *env, from, n int) (map[int]answer, error) {
	if len(e.w.distinct) > 0 {
		return nil, nil
	}
	folds := map[int]answer{}
	for i := 0; i < n; i++ {
		ops := e.w.pass(from + i)
		sqls := make([]string, len(ops))
		for j, p := range ops {
			sqls[j] = p.s.sql
		}
		key := goldenKey(e.w.name, "init", fmt.Sprintf("pass%03d", from+i), sqls...)
		g, hit := c.gold.lookup(e.w.seed, key)
		if !c.allPasses && (i >= oracleSamplePasses || (hit && !c.alwaysOracle)) {
			if hit {
				folds[i] = g
			}
			continue
		}
		f, err := c.expected(e.w.seed, key, func() (answer, error) {
			as := make([]answer, len(ops))
			for j, p := range ops {
				a, err := c.oracle(e, p.s)
				if err != nil {
					return answer{}, err
				}
				p.s.want, p.s.wantState = a, "init"
				as[j] = a
			}
			return fold(as), nil
		})
		if err != nil {
			return nil, err
		}
		folds[i] = f
	}
	return folds, nil
}

// verifyFinal re-executes statements after rows were appended and
// compares them with the oracle at the final table state.
func (c *checker) verifyFinal(e *env, t *tally, ss []*stmt) error {
	for _, s := range ss {
		if err := c.expectStmt(e, e.state, s); err != nil {
			return err
		}
		o, err := e.query(s, true)
		t.observe(e, s, o, err)
	}
	return nil
}
