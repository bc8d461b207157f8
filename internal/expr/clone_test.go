package expr

import "testing"

func TestCloneCopiesAllNodeTypesUnbound(t *testing.T) {
	orig := &Logic{Op: And, Args: []Expr{
		&Cmp{Op: LT, L: &Col{Table: "t", Name: "a"}, R: &Const{Val: 7, Repr: "7"}},
		&Between{X: NewCol("b"), Lo: &Const{Val: 1}, Hi: &Const{Val: 9}},
		&In{X: NewCol("c"), List: []Expr{&Const{Val: 1}, &Const{Val: 2}}},
		&Like{X: NewCol("s"), Pattern: "a%", Negate: true},
		&Cmp{Op: EQ, L: NewCol("s"), R: &StrConst{Val: "x"}},
		&Logic{Op: Not, Args: []Expr{&Cmp{Op: NE, L: &Arith{Op: Mul, L: NewCol("d"), R: &Const{Val: 2}}, R: &Const{Val: 0}}}},
		&Cmp{Op: GT, L: &Case{
			Whens: []CaseWhen{{Cond: &Cmp{Op: GE, L: NewCol("e"), R: &Const{Val: 5}}, Then: &Const{Val: 1}}},
			Else:  &Const{Val: 0},
		}, R: &Const{Val: 0}},
	}}
	got := Clone(orig)
	if got.String() != orig.String() {
		t.Fatalf("clone renders differently:\n got %s\nwant %s", got.String(), orig.String())
	}
	// No node may be shared: mutating the clone's tree must not touch the
	// original (the statistics sampler rebinds its clone of a filter or key
	// to the table's sample and caches it).
	var origNodes, cloneNodes []Expr
	Walk(orig, func(e Expr) { origNodes = append(origNodes, e) })
	Walk(got, func(e Expr) { cloneNodes = append(cloneNodes, e) })
	if len(origNodes) != len(cloneNodes) {
		t.Fatalf("node counts differ: %d vs %d", len(origNodes), len(cloneNodes))
	}
	for i := range origNodes {
		if origNodes[i] == cloneNodes[i] {
			t.Fatalf("node %d (%s) is shared between original and clone", i, origNodes[i].String())
		}
	}
	if Clone(nil) != nil {
		t.Fatal("Clone(nil) must be nil")
	}
}

func TestCloneDropsBoundState(t *testing.T) {
	s := &StrConst{Val: "x", code: 42, bound: true}
	c := Clone(s).(*StrConst)
	if c.bound {
		t.Fatal("clone of a bound StrConst must be unbound")
	}
	col := &Col{Name: "a", leaf: Leaf{Slot: 3}, bound: true}
	cc := Clone(col).(*Col)
	if cc.bound || cc.leaf != (Leaf{}) {
		t.Fatal("clone of a bound Col must be unbound")
	}
}
