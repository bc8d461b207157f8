package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// pyQuartiles returns the quartiles as Python's statistics.quantiles(xs,
// n=4) computes them (the exclusive method), which is what the driver
// that accepts or rejects the benchmark uses.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = max(1, min(j, n-1))
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// child runs this binary once, gated, and returns its result line and
// its audit line.
func child(exe, workload string, seed uint64, seconds int) (result, map[string]float64, error) {
	var r result
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	audit := map[string]float64{}
	for _, l := range lines {
		if rest, ok := bytes.CutPrefix(l, []byte("audit: ")); ok {
			var all map[string]any // scalars, plus the per-pass series
			_ = json.Unmarshal(rest, &all)
			for k, v := range all {
				if f, ok := v.(float64); ok {
					audit[k] = f
				}
			}
		}
	}
	return r, audit, nil
}

// runAA runs two alternating sets of n gated runs of this same binary,
// run i of either set with seed+i, and prints for every workload and
// end-to-end metric both medians, their relative difference, each set's
// quartile spread and the bound. It returns 1 if a second median is worse
// than the first by more than the bound, or a spread (set-up time's
// excepted, as in the driver) exceeds it.
func runAA(n int, seed uint64, seconds int, workloads []string) int {
	if n < 5 {
		fatal("-aa needs at least 5 runs per set")
	}
	exe, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	type key struct{ set, workload, metric string }
	vals := map[key][]float64{}
	failed := 0
	for i := 0; i < n; i++ {
		order := []string{"A", "B"}
		if i%2 == 1 {
			order = []string{"B", "A"}
		}
		for _, set := range order {
			for _, w := range workloads {
				r, audit, err := child(exe, w, seed+uint64(i), seconds)
				if err != nil {
					fatal("%v", err)
				}
				failed += r.Failed
				for m, v := range r.Metrics {
					vals[key{set, w, m}] = append(vals[key{set, w, m}], v.Value)
				}
				for m, v := range audit {
					vals[key{set, w, m}] = append(vals[key{set, w, m}], v)
				}
				fmt.Fprintf(os.Stderr, "aa: run %d/%d set %s %s done\n", i+1, n, set, w)
			}
		}
	}

	fmt.Printf("# A/A: two alternating sets of %d runs of one binary\n\n", n)
	fmt.Printf("`-aa %d -seed %d -seconds %d`, commit %s, %s, nproc %d.\n", n, seed, seconds, commit, cpuModel(), runtime.NumCPU())
	fmt.Printf("Quartiles as Python's `statistics.quantiles(values, n=4)`; spread = (q3 - q1) / median.\n")
	fmt.Printf("diff = how much worse set B's median is than set A's (negative: better).\n\n")
	fmt.Println("| workload | metric | median A | median B | diff | spread A | spread B | bound | verdict |")
	fmt.Println("|---|---|---:|---:|---:|---:|---:|---:|---|")
	breaches := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := vals[key{"A", w, d.name}], vals[key{"B", w, d.name}]
			a1, a2, a3 := pyQuartiles(a)
			b1, b2, b3 := pyQuartiles(b)
			diff := (b2 - a2) / a2
			if d.better == "higher" {
				diff = -diff
			}
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			if diff > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w, d.name, a2, b2, diff*100, sa*100, sb*100, d.bound*100, verdict)
		}
	}
	fmt.Printf("\n## What the correction did\n\n")
	fmt.Println("Raw medians and the reference kernel per set (`bench.*` values of the gated runs).")
	fmt.Println("`ref_spread` is the quartile spread of the reference samples inside one run; min..max is over the set's runs.")
	fmt.Println()
	fmt.Println("| workload | set | raw_pass_p50_ms min..max | pass_p50_ms min..max | ref_p50_ms min..max | ref_spread min..max |")
	fmt.Println("|---|---|---|---|---|---|")
	span := func(xs []float64, f string) string {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return fmt.Sprintf(strings.ReplaceAll("F..F", "F", f), s[0], s[len(s)-1])
	}
	for _, w := range workloads {
		for _, set := range []string{"A", "B"} {
			fmt.Printf("| %s | %s | %s | %s | %s | %s |\n", w, set,
				span(vals[key{set, w, "bench.raw_pass_p50_ms"}], "%.1f"),
				span(vals[key{set, w, "pass_p50_ms"}], "%.2f"),
				span(vals[key{set, w, "bench.ref_p50_ms"}], "%.2f"),
				span(vals[key{set, w, "bench.ref_spread"}], "%.3f"))
		}
	}
	fmt.Printf("\n%d breaches, %d failed operations.\n", breaches, failed)
	if breaches > 0 || failed > 0 {
		return 1
	}
	return 0
}
