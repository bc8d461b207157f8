package harness

import (
	"maps"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/swole/internal/micro"
	"github.com/reprolab/swole/internal/tpch"
)

// tiny returns a configuration small enough for unit tests; timings are
// not asserted, only structure.
func tiny() Config { return Config{SF: 0.002, MicroR: 20_000, Reps: 1} }

func TestFromEnv(t *testing.T) {
	t.Setenv("SWOLE_SF", "0.5")
	t.Setenv("SWOLE_MICRO_R", "123")
	t.Setenv("SWOLE_REPS", "7")
	cfg := FromEnv()
	if cfg.SF != 0.5 || cfg.MicroR != 123 || cfg.Reps != 7 {
		t.Errorf("FromEnv = %+v", cfg)
	}
	t.Setenv("SWOLE_SF", "garbage")
	t.Setenv("SWOLE_MICRO_R", "-1")
	os.Unsetenv("SWOLE_REPS")
	cfg = FromEnv()
	if cfg.SF != Default().SF || cfg.MicroR != Default().MicroR || cfg.Reps != Default().Reps {
		t.Errorf("bad env not defaulted: %+v", cfg)
	}
}

func TestFig6Structure(t *testing.T) {
	rows, err := tiny().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tpch.Queries) {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		for _, s := range tpch.Strategies {
			if r.Runtimes[s] <= 0 {
				t.Errorf("%s/%s: no runtime", r.Query, s)
			}
		}
	}
	text := FormatFig6(rows)
	for _, want := range []string{"Q1", "Q19", "volcano", "sw/hy"} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatFig6 missing %q", want)
		}
	}
}

func TestMicroFigureStructure(t *testing.T) {
	cfg := tiny()
	cases := []struct {
		name   string
		figs   []Figure
		series int
		nfigs  int
	}{
		{"fig8", cfg.Fig8(), 4, 2},
		{"fig9", cfg.Fig9(), 4, 3}, // 10, 1000, capped 2000 (dedup)
		{"fig10", cfg.Fig10(), 4, 2},
		{"fig11", cfg.Fig11(), 3, 4},
		{"fig12", cfg.Fig12(), 3, 2},
	}
	for _, c := range cases {
		if len(c.figs) != c.nfigs {
			t.Errorf("%s: %d sub-figures, want %d", c.name, len(c.figs), c.nfigs)
		}
		for _, f := range c.figs {
			if len(f.Series) != c.series {
				t.Errorf("%s/%s: %d series, want %d", c.name, f.ID, len(f.Series), c.series)
			}
			for _, s := range f.Series {
				if len(s.Points) != len(defaultSels()) {
					t.Errorf("%s/%s/%s: %d points", c.name, f.ID, s.Name, len(s.Points))
				}
				for _, p := range s.Points {
					if p.Runtime <= 0 {
						t.Errorf("%s/%s/%s: zero runtime at x=%v", c.name, f.ID, s.Name, p.X)
					}
				}
			}
			text := f.Format()
			if !strings.Contains(text, f.ID) || !strings.Contains(text, "sel(%)") {
				t.Errorf("%s: bad format:\n%s", f.ID, text)
			}
		}
	}
}

// groups returns the answer as group key → aggregate; a scalar answer is the
// one group 0.
func (a Answer) groups(t *testing.T) map[int64]int64 {
	switch {
	case a.tab != nil:
		return micro.AggToMap(a.tab)
	case a.res != nil:
		if len(a.res.Fields) != 2 {
			t.Fatalf("grouped answer has %d fields, want key and sum", len(a.res.Fields))
		}
		out := map[int64]int64{}
		for i := 0; i < len(a.res.Flat); i += 2 {
			out[a.res.Flat[i]] = a.res.Flat[i+1]
		}
		return out
	}
	return map[int64]int64{0: a.scalar}
}

// TestFigureSeriesAgree holds every series of Figures 8-12 to its panel's
// data-centric baseline, for every panel and every selectivity of the sweep.
func TestFigureSeriesAgree(t *testing.T) {
	cfg := tiny()
	for fig := 8; fig <= 12; fig++ {
		for _, p := range cfg.MicroPanels(fig) {
			if p.Series[0].Name != "datacentric" {
				t.Fatalf("%s: first series %s, want the data-centric baseline", p.ID, p.Series[0].Name)
			}
			for _, sel := range defaultSels() {
				want := p.Series[0].Prepare(sel)().groups(t)
				for _, s := range p.Series[1:] {
					if got := s.Prepare(sel)().groups(t); !maps.Equal(got, want) {
						t.Errorf("%s/%s at sel %d: %d groups %v, baseline %d groups", p.ID, s.Name, sel, len(got), sample(got), len(want))
					}
				}
			}
		}
	}
}

func sample(m map[int64]int64) map[int64]int64 {
	out := map[int64]int64{}
	for k, v := range m {
		if len(out) == 3 {
			break
		}
		out[k] = v
	}
	return out
}

// TestTinyMicroRFigures: an R too small for the paper's group counts and
// |S| runs every micro figure on one group key and one S row instead of
// generating an empty domain.
func TestTinyMicroRFigures(t *testing.T) {
	for _, r := range []int{1, 5} {
		cfg := Config{MicroR: r, Reps: 1}
		for _, figs := range [][]Figure{cfg.Fig8(), cfg.Fig9(), cfg.Fig10(), cfg.Fig11(), cfg.Fig12()} {
			for _, f := range figs {
				for _, s := range f.Series {
					if len(s.Points) == 0 {
						t.Errorf("R=%d %s/%s: no points", r, f.ID, s.Name)
					}
				}
			}
		}
	}
	if got := (Config{MicroR: 5}).fig9Cards(); len(got) != 1 || got[0] != 1 {
		t.Errorf("fig9Cards at R=5 = %v, want [1]", got)
	}
}

func TestFig9CardsCapped(t *testing.T) {
	cfg := Config{MicroR: 20_000}
	cards := cfg.fig9Cards()
	for _, c := range cards {
		if c > cfg.MicroR/10 {
			t.Errorf("card %d exceeds cap", c)
		}
	}
	for i := 1; i < len(cards); i++ {
		if cards[i] <= cards[i-1] {
			t.Errorf("cards not strictly increasing: %v", cards)
		}
	}
	// Full scale keeps the paper's four cardinalities.
	big := Config{MicroR: 100_000_000}
	if got := big.fig9Cards(); len(got) != 4 || got[3] != 10_000_000 {
		t.Errorf("full-scale cards = %v", got)
	}
}

func TestSeriesByName(t *testing.T) {
	f := Figure{Series: []Series{{Name: "a"}, {Name: "b"}}}
	if f.SeriesByName("b") == nil || f.SeriesByName("zz") != nil {
		t.Error("SeriesByName broken")
	}
}

func TestRatioAndFmtDur(t *testing.T) {
	if ratio(2*time.Second, time.Second) != 2 || ratio(time.Second, 0) != 0 {
		t.Error("ratio broken")
	}
	if fmtDur(1500*time.Microsecond) != "1.50ms" {
		t.Errorf("fmtDur = %s", fmtDur(1500*time.Microsecond))
	}
}
