package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("pyQuartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestWindowCorrection(t *testing.T) {
	// Six passes, seven reference samples: refs[i] precedes pass i and
	// refs[i+1] follows it. The host is twice as slow from the fifth pass
	// on; raw times double there and corrected ones must not move.
	refs := []float64{3, 3, 3, 3, 6, 6, 6}
	raw := []float64{100, 100, 100, 100, 200, 200}

	// Radius 1: pass i sees refs[i-1 .. i+2], clipped to the run.
	for i, want := range []float64{3, 3, 3, 4.5, 6, 6} {
		if got := windowRefs(refs, 1)[i]; !near(got, want) {
			t.Errorf("radius 1, pass %d: window median %v, want %v", i, got, want)
		}
	}
	// Radius 2: pass 3 sees refs[1..6] = {3,3,3,6,6,6}.
	if got := windowRefs(refs, 2)[3]; !near(got, 4.5) {
		t.Errorf("radius 2, pass 3: window median %v, want 4.5", got)
	}
	// Radius 0: only the two samples around the pass. Pass 3 straddles the
	// change (3 before, 6 after); every other pass corrects to 100 ms at
	// refMS = 3.
	cor := correct(raw, refs, 0)
	for i, c := range cor {
		want := 100 * refMS / 3
		if i == 3 {
			want = 100 * refMS / 4.5
		}
		if !near(c, want) {
			t.Errorf("radius 0, pass %d: corrected %v, want %v", i, c, want)
		}
	}
	if got := correctOne(50, 2, 4); !near(got, 50*refMS/3) {
		t.Errorf("correctOne(50, 2, 4) = %v, want %v", got, 50*refMS/3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 2.0/3) {
		t.Errorf("spread = %v, want 2/3", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "query", Start: 10, End: 40, Parent: 0},
		{Name: "query", Start: 30, End: 60, Parent: 0}, // overlaps the first child
		{Name: "inner", Start: 12, End: 20, Parent: 1},
		{Name: "query", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{100 - (30 + 20 + 10), 30 - 8, 30, 8, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "", -1)) // a nil tracer records nothing
}

func TestRefKernelChecksum(t *testing.T) {
	r := newRefKernel()
	a, d := r.run()
	b, _ := r.run()
	if a != b || a == 0 {
		t.Errorf("checksums %x and %x: want equal and non-zero", a, b)
	}
	if d <= 0 {
		t.Errorf("duration %v", d)
	}
}

func sqlOf(ops []op) string {
	var b strings.Builder
	for _, p := range ops {
		if p.s != nil {
			b.WriteString(p.s.sql)
		} else {
			b.Write(p.csv)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSeedDrivesStatements(t *testing.T) {
	for _, name := range []string{"tpch_generic", "adhoc_compile", "serve_mixed"} {
		list := func(seed uint64) string {
			w, err := newWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			return sqlOf(w.pass(0)) + sqlOf(w.pass(3))
		}
		if list(7) != list(7) {
			t.Errorf("%s: the same seed gave two statement lists", name)
		}
		if list(7) == list(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same statement list", name)
		}
	}
	w, _ := newWorkload("adhoc_compile", 7)
	seen := map[string]bool{}
	for g := 0; g < 5; g++ {
		for _, p := range w.pass(g) {
			if seen[p.s.sql] {
				t.Fatalf("statement repeated: %s", p.s.sql)
			}
			seen[p.s.sql] = true
		}
	}
}

// tiny scales a workload down so that a whole run takes a moment.
func tiny(name string) workloadCfg {
	c, _ := cfgOf(name)
	c.passes, c.warmup, c.tracePasses = 5, 1, 2
	if c.sf > 0 {
		c.sf = 0.01
	} else {
		c.rows, c.dimRows, c.groups = 20_000, 100, 1_000
	}
	return c
}

func TestAdhocStatementsCompile(t *testing.T) {
	w := newWorkloadCfg(tiny("adhoc_compile"), 3)
	db, err := w.load()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e := newEnv(w, db)
	for g := 0; g < 3; g++ {
		for _, p := range w.pass(g) {
			res, ex, err := db.QuerySwole(p.s.sql)
			if err != nil {
				t.Fatalf("%s: %v", p.s.sql, err)
			}
			if ex.Shape == "interpreter-fallback" {
				t.Fatalf("fell back to the interpreter: %s", p.s.sql)
			}
			if ex.PlanCached {
				t.Fatalf("a fresh statement hit the plan cache: %s", p.s.sql)
			}
			want, err := newChecker(nil).oracle(e, p.s)
			if err != nil {
				t.Fatal(err)
			}
			if got := digestRows(res.Rows()); got != want {
				t.Fatalf("%s: answer %v, oracle has %v", p.s.sql, got, want)
			}
		}
	}
}

func TestTPCHStatementsAreGeneric(t *testing.T) {
	w := newWorkloadCfg(tiny("tpch_generic"), 5)
	db, err := w.load()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if len(w.distinct) != 8 {
		t.Fatalf("%d statements, want 8", len(w.distinct))
	}
	for _, s := range w.distinct {
		_, ex, err := db.QuerySwole(s.sql)
		if err != nil {
			t.Fatalf("%s: %v", s.id, err)
		}
		sig := ex.Shape
		if sig == "interpreter-fallback" {
			t.Fatalf("%s fell back to the interpreter", s.id)
		}
		generic := false
		for _, mark := range []string{"agg:", "+having", "(or:", "join:2", "join:3", "(min", "(max"} {
			generic = generic || strings.Contains(sig, mark)
		}
		if !generic {
			t.Errorf("%s has the classic shape %s", s.id, sig)
		}
	}
}

// TestClassicSpecsMatchSQL pins every hand-built core spec to the SQL
// statement it stands for.
func TestClassicSpecsMatchSQL(t *testing.T) {
	for _, name := range []string{"micro_classic", "serve_mixed", "tpch_generic"} {
		w := newWorkloadCfg(tiny(name), 2)
		db, err := w.load()
		if err != nil {
			t.Fatal(err)
		}
		own, err := w.own()
		if err != nil {
			t.Fatal(err)
		}
		engine := core.NewEngine(own)
		for _, s := range append(append([]*stmt(nil), w.distinct...), w.aux...) {
			if s.classic == nil {
				continue
			}
			res, ex, err := db.QuerySwole(s.sql)
			if err != nil {
				t.Fatalf("%s: %v", s.sql, err)
			}
			if strings.Contains(ex.Shape, "agg:") || strings.Contains(ex.Shape, "having") {
				t.Errorf("%s: shape %s is not classic", s.id, ex.Shape)
			}
			run, err := s.classic(engine)
			if err != nil {
				t.Fatalf("%s: %v", s.id, err)
			}
			digest, _, err := run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := digest(), digestRows(res.Rows()); got != want {
				t.Errorf("%s: spec answers %v, SQL answers %v", s.id, got, want)
			}
		}
		engine.Close()
		db.Close()
	}
}

// TestRunsEndToEnd drives a gated and a traced run of every workload at a
// tiny scale: no operation may fail and every metric must be reported.
func TestRunsEndToEnd(t *testing.T) {
	ref := newRefKernel()
	ck := newChecker(&golden{})
	for _, c := range workloadCfgs {
		w := newWorkloadCfg(tiny(c.name), 11)
		g, err := runGated(w, w.passes, 2, 0, ref, ck)
		if err != nil {
			t.Fatalf("%s gated: %v", c.name, err)
		}
		if g.failed != 0 || g.attempted == 0 {
			t.Errorf("%s gated: %d attempted, %d failed: %s", c.name, g.attempted, g.failed, g.firstFailure)
		}
		for _, d := range endToEnd {
			if v, ok := g.metrics[d.name]; !ok || !(v > 0) {
				t.Errorf("%s gated: %s = %v", c.name, d.name, v)
			}
		}

		w = newWorkloadCfg(tiny(c.name), 11)
		tr, err := runTraced(w, ref, ck, map[string]any{"test": true}, t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", c.name, err)
		}
		if tr.failed != 0 || tr.attempted == 0 {
			t.Errorf("%s traced: %d attempted, %d failed: %s", c.name, tr.attempted, tr.failed, tr.firstFailure)
		}
		for _, d := range perLayer {
			v, ok := tr.values[d.name]
			if !ok && !strings.HasSuffix(d.name, "_ratio") && d.name != "serve.encode_us_per_krow" {
				t.Errorf("%s traced: %s missing", c.name, d.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s traced: %s = %v", c.name, d.name, v)
			}
		}
		hit := tr.values["root.plan_cache_hit_ratio"]
		switch c.name {
		case "micro_classic", "tpch_generic":
			if hit != 1 {
				t.Errorf("%s: plan cache hit ratio %v, want 1", c.name, hit)
			}
		case "adhoc_compile":
			if hit != 0 {
				t.Errorf("%s: plan cache hit ratio %v, want 0", c.name, hit)
			}
		case "serve_mixed":
			if hit <= 0 || hit >= 1 {
				t.Errorf("%s: plan cache hit ratio %v, want strictly between 0 and 1", c.name, hit)
			}
		}
		if tr.spans == 0 {
			t.Errorf("%s: no spans", c.name)
		}
		if _, err := os.Stat(tr.path); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	if !bytes.Equal(b, manifest()) {
		t.Error("BENCHMARK.json differs from -print-manifest; regenerate it")
	}
}
