// Command benchmark is the repository's benchmark: four workloads, five
// gated end-to-end metrics corrected for host-speed drift by a reference
// kernel, and a traced run that climbs a layer ladder for every
// statement. See README.md in this directory.
//
//	bash benchmark/run.sh                          # all workloads, gated then traced
//	bash benchmark/run.sh -workload tpch_generic   # one workload, gated
//	bash benchmark/run.sh -workload serve_mixed -trace 1
//	bash benchmark/run.sh -aa 5                    # A/A table (benchmark/AA.md)
//	bash benchmark/run.sh -verify                  # answers vs golden file and oracle
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is stamped by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

var start = time.Now()

func nowMS() float64             { return ms(time.Since(start)) }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(1)
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed         = flag.Uint64("seed", defaultSeed, "seed of the statement generators and the micro datasets")
		seconds      = flag.Int("seconds", frozenSeconds, "length of the measured phase on the reference host; scales the frozen pass counts")
		trace        = flag.Int("trace", 0, "1: run the layer ladder and print the per-layer metrics instead of the end-to-end ones")
		aa           = flag.Int("aa", 0, "run two alternating sets of N gated runs of this binary and print the A/A table")
		regen        = flag.Bool("regen-golden", false, "rewrite the golden file from the interpreted oracle (DB.Query) for the default seed")
		verify       = flag.Bool("verify", false, "check every statement of every workload against the golden file and the oracle, without timing")
		outDir       = flag.String("out", "benchmark/out", "directory the traced run writes trace-<workload>.json to")
		goldenPath   = flag.String("golden", "benchmark/golden.json", "file -regen-golden writes")
		printMan     = flag.Bool("print-manifest", false, "print BENCHMARK.json as this package defines it and exit")
	)
	flag.Parse()
	if *printMan {
		os.Stdout.Write(manifest())
		return
	}
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	if *seed == 0 {
		*seed = defaultSeed // the dataset generators treat 0 as "unset"
	}
	names := workloadNames()
	if *workloadFlag != "all" {
		if _, ok := cfgOf(*workloadFlag); !ok {
			fatal("unknown workload %q", *workloadFlag)
		}
		names = []string{*workloadFlag}
	}
	runtime.GOMAXPROCS(gatedProcs)

	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, *seconds, names))
	}

	gold, err := loadGolden()
	if err != nil {
		fatal("%v", err)
	}
	var recording *golden
	if *regen {
		*seed = defaultSeed
		gold = &golden{} // answers nothing: the oracle is asked for everything
		recording = &golden{Seed: defaultSeed, Entries: map[string]string{}}
	}

	ref := newRefKernel()
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		modes := []bool{*trace == 1}
		if *workloadFlag == "all" && !*regen && !*verify {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			// The traced run always asks the oracle, so that the volcano
			// rung has a timing for every statement.
			checkOnly := *regen || *verify
			ck := &checker{
				gold: gold, recording: recording, oracleDur: map[*stmt]time.Duration{},
				alwaysOracle: checkOnly || traced, allPasses: checkOnly,
			}
			r, err := runOne(name, *seed, *seconds, traced, checkOnly, ref, ck, *outDir)
			if err != nil {
				fatal("%s: %v", name, err)
			}
			final.Attempted += r.Attempted
			final.Failed += r.Failed
			final.Correct = final.Correct && r.Correct
			for k, v := range r.Metrics {
				if len(names) > 1 {
					k = name + "/" + k
				}
				final.Metrics[k] = v
			}
		}
	}
	if *regen {
		if err := recording.save(*goldenPath); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %d oracle answers to %s\n", len(recording.Entries), *goldenPath)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadCfgs))
	for i, c := range workloadCfgs {
		names[i] = c.name
	}
	return names
}

// passesFor scales a frozen pass count to the requested run length.
func passesFor(frozen, seconds int) int {
	n := int(math.Round(float64(frozen) * float64(seconds) / frozenSeconds))
	if n < minPasses {
		n = minPasses
	}
	return n
}

// runOne performs one gated or traced run of one workload and prints its
// provenance header and metric table. checkOnly (-verify, -regen-golden)
// sets up once and lifts the phase cap: only the checks matter.
func runOne(name string, seed uint64, seconds int, traced, checkOnly bool, ref *refKernel, ck *checker, outDir string) (result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return result{}, err
	}
	passes := passesFor(w.passes, seconds)
	out := result{Metrics: map[string]metricValue{}}
	prov := provenance(w, passes, traced)

	var (
		defs   []metricDef
		values map[string]float64
		counts tally
		extra  string
	)
	if traced {
		tr, err := runTraced(w, ref, ck, prov, outDir)
		if err != nil {
			return out, err
		}
		defs, values, counts = perLayer, tr.values, tr.tally
		prov["bench.ref_p50_ms"] = tr.values["bench.ref_p50_ms"]
		extra = fmt.Sprintf("trace: %d spans in %s", tr.spans, tr.path)
	} else {
		repeats := setupRepeats
		limit := time.Duration(phaseCapFactor * float64(seconds) * float64(time.Second))
		if checkOnly {
			repeats, limit = 1, 0
		}
		g, err := runGated(w, passes, repeats, limit, ref, ck)
		if err != nil {
			return out, err
		}
		defs, values, counts = endToEnd, g.metrics, g.tally
		prov["bench.ref_p50_ms"] = g.audit["bench.ref_p50_ms"]
		// Raw values and reference times always accompany the corrected
		// ones, so the correction can be audited.
		audit, _ := json.Marshal(g.audit)
		extra = fmt.Sprintf("audit: %s", audit)
	}
	printHeader(prov)
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{values[d.name], d.unit}
		fmt.Printf("  %-32s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Println(extra)
	if counts.firstFailure != "" {
		fmt.Printf("first failure: %s\n", counts.firstFailure)
	}
	out.Attempted, out.Failed = counts.attempted, counts.failed
	out.Correct = out.Failed == 0 && out.Attempted > 0
	fmt.Printf("checked: %d operations attempted, %d failed (oracle ran %.1fs)\n", out.Attempted, out.Failed, ck.oracleTime.Seconds())
	return out, nil
}

// provenance describes where a run's numbers come from; it heads every
// output and is embedded in the trace file.
func provenance(w *workload, passes int, traced bool) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"traced":     traced,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       w.seed,
		"scale":      scaleOf(w.workloadCfg),
		"passes":     passes,
		"warmup":     w.warmup,
		"setups":     setupRepeats,
		"workers":    gatedWorkers,
		"ref_ms":     refMS,
	}
}

func scaleOf(c workloadCfg) string {
	if c.sf > 0 {
		return fmt.Sprintf("tpch sf=%g", c.sf)
	}
	return fmt.Sprintf("micro r=%d s=%d groups=%d", c.rows, c.dimRows, c.groups)
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

func printHeader(prov map[string]any) {
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, prov[k])
	}
	fmt.Printf("# %s\n", strings.Join(parts, " "))
}
