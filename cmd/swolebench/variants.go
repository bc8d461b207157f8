package main

import (
	"fmt"

	swole "github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/harness"
)

// runKernelVariants executes each supported query shape twice (cold to
// compile, warm for the steady-state reading) and reports the
// kernel-variant selection counters from the warm Explain: which density
// class each selection tile took, which native lane widths the compare and
// widen prepasses ran at, how many tiles used fused dict/key masking, and
// how many probe/scatter tiles ran with software prefetch. This is the
// observability face of the variant layer (DESIGN.md §11): the counters
// come from the same per-worker tallies the engine merges into every
// Explain.
func runKernelVariants(cfg harness.Config) error {
	groups := cfg.MicroR / 10
	if groups > 100_000 {
		groups = 100_000
	}
	fmt.Printf("kernel-variant report: R=%d rows, %d group keys, workers=%d\n\n",
		cfg.MicroR, groups, cfg.Workers)
	db, err := swole.LoadMicro(swole.MicroConfig{
		Rows: cfg.MicroR, DimRows: 1000, GroupKeys: groups, Seed: 42,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetWorkers(cfg.Workers)

	for _, tc := range steadyQueries {
		if _, _, err := db.QuerySwole(tc.q); err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		_, ex, err := db.QuerySwole(tc.q) // warm: counters from the cached plan
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		v := ex.Variants
		fmt.Printf("%s: %s\n", tc.name, tc.q)
		path := "direct"
		if ex.DenseDomain > 0 {
			path = fmt.Sprintf("direct dense=%d", ex.DenseDomain)
		}
		if ex.Partitioned {
			path = fmt.Sprintf("radix-partitioned (%d partitions)", ex.Partitions)
		}
		fmt.Printf("  technique=%s path=%s workers=%d\n", ex.Technique, path, cfg.Workers)
		if v.Total() == 0 {
			fmt.Printf("  no variant counters (tuple-at-a-time or fallback path)\n\n")
			continue
		}
		fmt.Printf("  selection tiles   sparse=%d mid=%d dense=%d (branching/no-branch/branching)\n",
			v.SelSparse, v.SelMid, v.SelDense)
		widths := [4]string{"int8", "int16", "int32", "int64"}
		for i, w := range widths {
			if v.Cmp[i] > 0 || v.Widen[i] > 0 {
				fmt.Printf("  %-6s lanes      cmp=%d widen=%d\n", w, v.Cmp[i], v.Widen[i])
			}
		}
		fmt.Printf("  masked tiles      value=%d key=%d dict=%d\n", v.MaskedAgg, v.KeyMask, v.DictKeys)
		fmt.Printf("  prefetched        probe=%d\n\n", v.PrefetchProbe)
	}
	return nil
}
