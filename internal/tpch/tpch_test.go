package tpch

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/storage"
)

// Shared tiny dataset; generating once keeps the suite fast.
var (
	testOnce sync.Once
	testData *Data
)

func getData(t *testing.T) *Data {
	t.Helper()
	testOnce.Do(func() { testData = Generate(0.005) })
	return testData
}

// TestAllQueriesAllStrategiesAgree holds every strategy of every query to
// Volcano's answer: the hand-written kernels, and the engine's forced-hybrid
// and cost-model plans of the queries the synthesizer accepts.
func TestAllQueriesAllStrategiesAgree(t *testing.T) {
	d := getData(t)
	for _, q := range Queries {
		ref, err := d.Run(q, Volcano)
		if err != nil {
			t.Fatalf("%s volcano: %v", q, err)
		}
		if len(ref) == 0 {
			t.Errorf("%s: volcano returned no rows; dataset too small to exercise the query", q)
		}
		for _, s := range []Strategy{DataCentric, Hybrid, Swole} {
			run, err := d.Prepare(q, s)
			if err != nil {
				t.Fatalf("%s %s: %v", q, s, err)
			}
			got, ex, err := run()
			if err != nil {
				t.Fatalf("%s %s: %v", q, s, err)
			}
			if OnEngine(q, s) && s == Hybrid && ex.Technique != core.TechHybrid {
				t.Errorf("%s hybrid ran %s", q, ex.Technique)
			}
			if !got.Equal(ref) {
				max := len(got)
				if len(ref) < max {
					max = len(ref)
				}
				firstDiff := -1
				for i := 0; i < max; i++ {
					same := len(got[i]) == len(ref[i])
					if same {
						for j := range got[i] {
							if got[i][j] != ref[i][j] {
								same = false
								break
							}
						}
					}
					if !same {
						firstDiff = i
						break
					}
				}
				t.Errorf("%s %s: %d rows vs volcano %d; first differing row %d\n got: %v\nwant: %v",
					q, s, len(got), len(ref), firstDiff, sample(got, firstDiff), sample(ref, firstDiff))
			}
		}
	}
	// The synthesizer accepts exactly Q1, Q3, Q6, Q14 and Q19, and those are
	// the queries with no hand-written hybrid or SWOLE.
	for _, q := range Queries {
		_, ok := core.Synthesize(d.DB, Plan(q))
		if want := slices.Contains([]Query{Q1, Q3, Q6, Q14, Q19}, q); ok != want {
			t.Errorf("%s: synthesizer accepts=%v, want %v", q, ok, want)
		}
		if OnEngine(q, Swole) != ok || OnEngine(q, Hybrid) != ok {
			t.Errorf("%s: synthesizer accepts=%v, runs on the engine=%v", q, ok, OnEngine(q, Swole))
		}
	}
}

func sample(r Rows, i int) []int64 {
	if i >= 0 && i < len(r) {
		return r[i]
	}
	if len(r) > 0 {
		return r[0]
	}
	return nil
}

// TestGenerateDeterministic pins the generated data bit for bit: two runs
// agree, and an FNV-1a digest of every table's columns (name, Kind, Log,
// values, dictionary) and of every typed slice and dictionary of Data
// matches the constant recorded when the generator last changed its output.
// A reordered RNG draw or a column built at another width changes the
// digest.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.001)
	b := Generate(0.001)
	if digestData(a) != digestData(b) {
		t.Fatal("two runs differ")
	}
	for _, c := range []struct {
		sf   float64
		want uint64
	}{
		{0.001, 0x89b99724e927ffcb},
		{0.01, 0x592bebdd88d9354f},
	} {
		if got := digestData(Generate(c.sf)); got != c.want {
			t.Errorf("SF %g: digest %#x, want %#x", c.sf, got, c.want)
		}
	}
}

// digestData folds the column store, in table creation order, and then
// every exported slice and dictionary of Data's per-table structs.
func digestData(d *Data) uint64 {
	h := fnv.New64a()
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "orders", "lineitem"} {
		tab := d.DB.Table(name)
		io.WriteString(h, tab.Name)
		for _, c := range tab.Columns {
			io.WriteString(h, c.Name)
			put(h, [2]int64{int64(c.Kind), int64(c.Log)})
			switch c.Kind {
			case storage.KindInt8:
				put(h, c.I8)
			case storage.KindInt16:
				put(h, c.I16)
			case storage.KindInt32:
				put(h, c.I32)
			default:
				put(h, c.I64)
			}
			digestDict(h, c.Dict)
		}
	}
	v := reflect.ValueOf(d).Elem()
	for i := 0; i < v.NumField(); i++ {
		tf := v.Type().Field(i)
		if !tf.IsExported() || tf.Type.Kind() != reflect.Struct {
			continue
		}
		for j := 0; j < tf.Type.NumField(); j++ {
			io.WriteString(h, tf.Name+"."+tf.Type.Field(j).Name)
			switch f := v.Field(i).Field(j).Interface().(type) {
			case *storage.Dict:
				digestDict(h, f)
			default:
				put(h, f)
			}
		}
	}
	return h.Sum64()
}

// put writes v's fixed-size encoding; a field of another type fails loudly
// rather than dropping out of the digest.
func put(h hash.Hash64, v any) {
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(err)
	}
}

func digestDict(h hash.Hash64, d *storage.Dict) {
	if d == nil {
		return
	}
	put(h, int64(d.Len()))
	for i := 0; i < d.Len(); i++ {
		put(h, int64(len(d.Value(i))))
		io.WriteString(h, d.Value(i))
	}
}

func TestSelectivityTargets(t *testing.T) {
	// The generator must hit the paper's per-query selectivity regimes.
	d := getData(t)
	li := &d.Lineitem
	n := len(li.ShipDate)

	frac := func(pred func(i int) bool, m int) float64 {
		c := 0
		for i := 0; i < m; i++ {
			if pred(i) {
				c++
			}
		}
		return float64(c) / float64(m)
	}

	// Q1: ~98% of lineitem.
	if f := frac(func(i int) bool { return li.ShipDate[i] <= q1Cutoff }, n); f < 0.95 || f > 0.995 {
		t.Errorf("Q1 selectivity %.3f, paper says ~0.98", f)
	}
	// Q6: ~2% of lineitem (5 comparisons, 3 attributes).
	if f := frac(func(i int) bool {
		return li.ShipDate[i] >= q6Lo && li.ShipDate[i] < q6Hi &&
			li.Discount[i] >= 5 && li.Discount[i] <= 7 && li.Quantity[i] < 24
	}, n); f < 0.005 || f > 0.05 {
		t.Errorf("Q6 selectivity %.4f, paper says ~0.02", f)
	}
	// Q4: ~4% of orders.
	no := len(d.Orders.OrderDate)
	if f := frac(func(i int) bool {
		return d.Orders.OrderDate[i] >= q4Lo && d.Orders.OrderDate[i] < q4Hi
	}, no); f < 0.02 || f > 0.07 {
		t.Errorf("Q4 orders selectivity %.4f, paper says ~0.04", f)
	}
	// Q13: ~98% of orders pass NOT LIKE.
	match := q13Match(d)
	if f := frac(func(i int) bool { return match[d.Orders.Comment[i]] == 1 }, no); f < 0.95 || f > 0.999 {
		t.Errorf("Q13 selectivity %.4f, paper says ~0.98", f)
	}
	// Q14: ~1% of lineitem.
	if f := frac(func(i int) bool {
		return li.ShipDate[i] >= q14Lo && li.ShipDate[i] < q14Hi
	}, n); f < 0.005 || f > 0.03 {
		t.Errorf("Q14 selectivity %.4f, paper says ~0.01", f)
	}
	// Q3: BUILDING is ~1/5 of customers.
	bld := int8(codeOf(d.Customer.SegDict, "BUILDING"))
	if f := frac(func(i int) bool { return d.Customer.MktSegment[i] == bld }, len(d.Customer.MktSegment)); f < 0.1 || f > 0.3 {
		t.Errorf("Q3 segment selectivity %.3f, want ~0.2", f)
	}
}

func TestReferentialIntegrity(t *testing.T) {
	d := getData(t)
	// FK index construction validates RI; reaching here means it held.
	for _, fk := range [][4]string{
		{"lineitem", "l_orderkey", "orders", "o_orderkey"},
		{"lineitem", "l_partkey", "part", "p_partkey"},
		{"orders", "o_custkey", "customer", "c_custkey"},
	} {
		idx := d.DB.FK(fk[0], fk[1], fk[2], fk[3])
		if idx == nil {
			t.Fatalf("fk index %v not registered", fk)
		}
		child := d.DB.MustTable(fk[0])
		if len(idx.Pos) != child.Rows() {
			t.Errorf("fk index %v has %d entries for %d rows", fk, len(idx.Pos), child.Rows())
		}
		// Dense primary keys mean position == key.
		fkCol := child.MustColumn(fk[1])
		for i := 0; i < 100 && i < child.Rows(); i++ {
			if int64(idx.Pos[i]) != fkCol.Get(i) {
				t.Fatalf("fk index %v: position %d != key %d (pk not dense?)", fk, idx.Pos[i], fkCol.Get(i))
			}
		}
	}
}

func TestDictionaryWidthsStable(t *testing.T) {
	// Vocabulary-built dictionaries must have full-vocabulary sizes even
	// at tiny scale.
	d := getData(t)
	if d.Part.TypeDict.Len() != 150 {
		t.Errorf("p_type dict has %d entries, want 150", d.Part.TypeDict.Len())
	}
	if d.Part.BrandDict.Len() != 25 {
		t.Errorf("p_brand dict has %d entries, want 25", d.Part.BrandDict.Len())
	}
	if d.Part.ContDict.Len() != 40 {
		t.Errorf("p_container dict has %d entries, want 40", d.Part.ContDict.Len())
	}
	if d.Region.NameDict.Len() != 5 || d.Nation.NameDict.Len() != 25 {
		t.Error("region/nation dicts wrong size")
	}
}

func TestCommentsContainSpecialRequests(t *testing.T) {
	d := getData(t)
	dict := d.Orders.CommentDict
	special := 0
	for i := 0; i < dict.Len(); i++ {
		s := dict.Value(i)
		if strings.Contains(s, "special") && strings.Contains(s, "requests") {
			special++
		}
	}
	if special == 0 {
		t.Error("no comments contain the Q13 pattern; Q13 would be trivial")
	}
}

// TestCommentTokens guards what makes a comment key order as its text:
// every byte of every token sorts above the separator ' ', and the longest
// comment's key fits in 64 bits.
func TestCommentTokens(t *testing.T) {
	for _, tok := range slices.Concat(commentWords[:], commentSuffix[:]) {
		if tok == "" {
			t.Error("empty comment token")
		}
		for i := 0; i < len(tok); i++ {
			if tok[i] <= ' ' {
				t.Errorf("token %q: byte %#x does not sort above ' '", tok, tok[i])
			}
		}
	}
	keys := new(big.Int).Exp(big.NewInt(int64(commentRadix)), big.NewInt(int64(maxCommentTokens)), nil)
	if keys.Cmp(new(big.Int).Lsh(big.NewInt(1), 64)) > 0 {
		t.Errorf("%d^%d keys exceed 64 bits", commentRadix, maxCommentTokens)
	}
}

// TestCommentDictMatchesSort holds the comment dictionary, built from keys
// without comparing a string, to BuildDict's sort of the comments' texts.
// SF 0.05 draws some comments twice, so equal keys are covered.
func TestCommentDictMatchesSort(t *testing.T) {
	d := Generate(0.05)
	o := &d.Orders
	texts := make([]string, len(o.Comment))
	for i, c := range o.Comment {
		texts[i] = o.CommentDict.Value(int(c))
	}
	dict, codes := storage.BuildDict(texts)
	if dict.Len() == len(texts) {
		t.Fatalf("all %d comments distinct; the test needs repeated ones", len(texts))
	}
	if dict.Len() != o.CommentDict.Len() {
		t.Fatalf("%d distinct comments, the generator's dictionary holds %d", dict.Len(), o.CommentDict.Len())
	}
	for c := 0; c < dict.Len(); c++ {
		if dict.Value(c) != o.CommentDict.Value(c) {
			t.Fatalf("value %d: %q, generator %q", c, dict.Value(c), o.CommentDict.Value(c))
		}
	}
	if !slices.Equal(codes, o.Comment) {
		t.Fatal("codes differ from the generator's")
	}
}

func TestTableRowsScale(t *testing.T) {
	_, _, s1, c1, p1, o1, l1 := TableRows(0.01)
	_, _, s2, c2, p2, o2, l2 := TableRows(0.02)
	if s2 < s1 || c2 < 2*c1-1 || p2 < 2*p1-1 || o2 < 2*o1-1 || l2 < 2*l1-1 {
		t.Error("row counts do not scale with SF")
	}
	// Floors apply at tiny SF.
	_, _, s0, c0, _, o0, _ := TableRows(0)
	if s0 < 10 || c0 < 20 || o0 < 50 {
		t.Error("minimum row counts not enforced")
	}
}

func TestStrategyAndQueryNames(t *testing.T) {
	if Volcano.String() != "volcano" || Swole.String() != "swole" {
		t.Error("bad strategy names")
	}
	if Q1.String() != "Q1" || Q19.String() != "Q19" {
		t.Error("bad query names")
	}
	if len(Queries) != 8 || len(Strategies) != 4 {
		t.Error("wrong query/strategy counts")
	}
}

func TestRunUnknownCombination(t *testing.T) {
	d := getData(t)
	if _, err := d.Run(Query(99), DataCentric); err == nil {
		t.Error("unknown query accepted")
	}
	if _, err := d.Run(Query(99), Swole); err == nil {
		t.Error("unknown query accepted on the engine")
	}
}

func TestRowsEqual(t *testing.T) {
	a := Rows{{1, 2}, {3, 4}}
	if !a.Equal(Rows{{1, 2}, {3, 4}}) {
		t.Error("equal rows not equal")
	}
	if a.Equal(Rows{{1, 2}}) || a.Equal(Rows{{1, 2}, {3, 5}}) || a.Equal(Rows{{1, 2}, {3}}) {
		t.Error("unequal rows equal")
	}
}

// TestExplainSwoleCoversAllQueries holds ExplainSwole to the hand-run
// queries: one entry each, in Figure 6 order, and none for a query whose
// SWOLE strategy is an engine plan.
func TestExplainSwoleCoversAllQueries(t *testing.T) {
	var handRun []Query
	for _, q := range Queries {
		if !OnEngine(q, Swole) {
			handRun = append(handRun, q)
		}
	}
	explains := ExplainSwole()
	if len(explains) != len(handRun) {
		t.Fatalf("%d explains for %d hand-run queries", len(explains), len(handRun))
	}
	for i, ex := range explains {
		if ex.Query != handRun[i] {
			t.Errorf("explain %d is %s, want %s (Figure 6 order)", i, ex.Query, handRun[i])
		}
		if ex.Rationale == "" {
			t.Errorf("%s: empty rationale", ex.Query)
		}
		if len(ex.Techniques) == 0 {
			t.Errorf("%s: no techniques listed", ex.Query)
		}
	}
}
