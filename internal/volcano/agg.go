package volcano

import (
	"math"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// accState accumulates one aggregate for one group. All aggregates
// accumulate in int64 (Section IV: "all aggregates are stored as 64-bit
// integers").
type accState struct {
	sum   int64
	count int64
	min   int64
	max   int64
}

func newAccStates(aggs []plan.AggSpec) []accState {
	states := make([]accState, len(aggs))
	for i := range states {
		states[i].min = math.MaxInt64
		states[i].max = math.MinInt64
	}
	return states
}

func updateAccStates(states []accState, aggs []plan.AggSpec, row Row) {
	for i, a := range aggs {
		var v int64
		if a.Arg != nil {
			v = expr.Eval(a.Arg, 0, row)
		}
		s := &states[i]
		s.sum += v
		s.count++
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
}

// finalize produces the aggregate value. Averages are fixed-point scaled by
// storage.DecimalOne, matching the hand-specialized kernels.
func (s *accState) finalize(f plan.AggFunc) int64 {
	switch f {
	case plan.Sum:
		return s.sum
	case plan.Count:
		return s.count
	case plan.Avg:
		if s.count == 0 {
			return 0
		}
		return s.sum * storage.DecimalOne / s.count
	case plan.Min:
		if s.count == 0 {
			return 0
		}
		return s.min
	default: // Max
		if s.count == 0 {
			return 0
		}
		return s.max
	}
}

// aggIter is a blocking hash aggregation.
type aggIter struct {
	spec     *plan.Aggregate
	in       iterator
	keyIdx   []int
	fields   expr.Fields
	groups   []Row // emitted rows
	pos      int
	inFields expr.Fields
}

func buildAggregate(a *plan.Aggregate, db source) (iterator, expr.Fields, error) {
	in, inFields, err := build(a.Input, db)
	if err != nil {
		return nil, nil, err
	}
	keyIdx := make([]int, len(a.GroupBy))
	outFields := make(expr.Fields, 0, len(a.GroupBy)+len(a.Aggs))
	for i, g := range a.GroupBy {
		idx := inFields.Index(g)
		if idx < 0 {
			return nil, nil, errNoColumn(g)
		}
		keyIdx[i] = idx
		outFields = append(outFields, inFields[idx])
	}
	for i := range a.Aggs {
		if a.Aggs[i].Arg != nil {
			if err := expr.Bind(a.Aggs[i].Arg, inFields); err != nil {
				return nil, nil, err
			}
		}
		outFields = append(outFields, expr.Field{Name: a.Aggs[i].As, Log: storage.LogInt})
	}
	if a.Having != nil {
		// HAVING sees the finalized output row: keys then aggregates.
		if err := expr.Bind(a.Having, outFields); err != nil {
			return nil, nil, err
		}
	}
	return &aggIter{spec: a, in: in, keyIdx: keyIdx, fields: outFields, inFields: inFields}, outFields, nil
}

type errNoColumn string

func (e errNoColumn) Error() string { return "volcano: no column " + string(e) }

func (it *aggIter) open() error {
	if err := it.in.open(); err != nil {
		return err
	}
	defer it.in.close()
	type group struct {
		keys Row
		accs []accState
	}
	groups := map[string]*group{}
	var order []string // deterministic first-seen emission order
	buf := make([]byte, 0, 64)
	for {
		row, ok, err := it.in.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k := packKey(buf, row, it.keyIdx)
		g := groups[k]
		if g == nil {
			keys := make(Row, len(it.keyIdx))
			for i, idx := range it.keyIdx {
				keys[i] = row[idx]
			}
			g = &group{keys: keys, accs: newAccStates(it.spec.Aggs)}
			groups[k] = g
			order = append(order, k)
		}
		updateAccStates(g.accs, it.spec.Aggs, row)
	}
	// A scalar aggregation over zero rows still produces one row
	// (count=0, sums=0), matching SQL semantics for our integer types.
	if len(it.keyIdx) == 0 && len(order) == 0 {
		groups[""] = &group{keys: Row{}, accs: newAccStates(it.spec.Aggs)}
		order = append(order, "")
	}
	it.groups = it.groups[:0]
	for _, k := range order {
		g := groups[k]
		out := make(Row, 0, len(g.keys)+len(g.accs))
		out = append(out, g.keys...)
		for i := range g.accs {
			out = append(out, g.accs[i].finalize(it.spec.Aggs[i].Func))
		}
		if it.spec.Having != nil && expr.Eval(it.spec.Having, 0, out) == 0 {
			continue
		}
		it.groups = append(it.groups, out)
	}
	it.pos = 0
	return nil
}

func (it *aggIter) next() (Row, bool, error) {
	if it.pos >= len(it.groups) {
		return nil, false, nil
	}
	row := it.groups[it.pos]
	it.pos++
	return row, true, nil
}

func (it *aggIter) close() {}
