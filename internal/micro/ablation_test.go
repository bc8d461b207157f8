package micro

import "testing"

func TestQ1HybridBranchingMatches(t *testing.T) {
	d := testData(t, 10_000, 100, 10)
	for _, op := range []Op{OpMul, OpDiv} {
		for _, sel := range []int{0, 13, 50, 100} {
			want := refQ1(d, op, sel)
			if got := Q1HybridBranching(d, op, sel); got != want {
				t.Errorf("op=%v sel=%d: got %d, want %d", op, sel, got, want)
			}
		}
	}
}

func TestQ2NoFlagsShowsPhantomGroups(t *testing.T) {
	// The ablation demonstrates WHY the validity flag exists: without it,
	// keys whose tuples are all masked still appear with aggregate 0.
	d := testData(t, 5_000, 10, 20)
	noFlags := Q2ValueMaskingNoFlags(d, 0)
	if len(noFlags) == 0 {
		t.Fatal("expected phantom groups at sel=0")
	}
	for k, v := range noFlags {
		if v != 0 {
			t.Errorf("phantom group %d has nonzero sum %d", k, v)
		}
	}
	// With flags, the result is correctly empty (covered elsewhere too).
	if got := AggToMap(Q2ValueMasking(d, 0)); len(got) != 0 {
		t.Error("flagged version leaked groups")
	}
	// At full selectivity both agree.
	want := refQ2(d, 100)
	if !mapsEqual(Q2ValueMaskingNoFlags(d, 100), want) {
		t.Error("no-flags variant wrong at sel=100")
	}
}

func TestQ5EagerNoDeleteIsSupersetOfEager(t *testing.T) {
	d := testData(t, 20_000, 100, 10)
	all := Q5EagerNoDelete(d)
	kept := AggToMap(Q5EagerAggregation(d, 30))
	if len(kept) > len(all) {
		t.Fatal("deletion added groups")
	}
	for k, v := range kept {
		if all[k] != v {
			t.Errorf("group %d: kept=%d, pre-delete=%d", k, v, all[k])
		}
	}
	// Everything survives at sel=100.
	if !mapsEqual(AggToMap(Q5EagerAggregation(d, 100)), all) {
		t.Error("sel=100 should keep every group")
	}
}
