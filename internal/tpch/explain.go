package tpch

import "github.com/reprolab/swole/internal/core"

// SwoleExplain documents which SWOLE techniques the hand-specialized
// kernel of a query applies, mirroring the paper's per-query analysis in
// Section IV-A. It covers only the queries whose SWOLE strategy is
// hand-written: an engine plan reports its own technique in its Explain.
type SwoleExplain struct {
	Query      Query
	Techniques []core.Technique
	// Rationale is the paper's reasoning, condensed.
	Rationale string
}

// ExplainSwole returns the technique mapping of the hand-run queries, in
// Figure 6 order.
func ExplainSwole() []SwoleExplain {
	return []SwoleExplain{
		{Q3, []core.Technique{core.TechPositionalBitmap},
			"bitmap semijoin replaces the customer-orders hash join; eager aggregation rejected (too many keys filtered by the join, IV-A2)"},
		{Q4, []core.Technique{core.TechPositionalBitmap},
			"semijoin becomes a positional bitmap over order positions, built and probed with sequential scans (IV-A3)"},
		{Q5, []core.Technique{core.TechPositionalBitmap},
			"all joins become bitmap semijoins with late materialization; ~3% of tuples survive to the final aggregation (IV-A4)"},
		{Q13, []core.Technique{core.TechValueMasking},
			"98% of orders pass the NOT LIKE, so unconditional lookups waste almost nothing; runtime is dominated by string matching (IV-A6)"},
	}
}
