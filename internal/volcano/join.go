package volcano

import (
	"fmt"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// joinIter is a blocking hash join: the build side is drained into a hash
// table on open, then probe rows stream through. Inner joins require
// unique build keys (all inner joins in the workloads are FK/PK);
// semijoins deduplicate build keys into a set.
type joinIter struct {
	spec       *plan.Join
	probe      iterator
	buildIt    iterator
	probeKeyIx int
	buildKeyIx int
	nBuildCols int

	set       *ht.SetTable  // semijoin
	table     *ht.JoinTable // inner join
	buildRows []Row

	out Row
}

func buildJoin(j *plan.Join, db source) (iterator, expr.Fields, error) {
	probe, probeFields, err := build(j.Probe, db)
	if err != nil {
		return nil, nil, err
	}
	buildSide, buildFields, err := build(j.Build, db)
	if err != nil {
		return nil, nil, err
	}
	pIx := probeFields.Index(j.ProbeKey)
	bIx := buildFields.Index(j.BuildKey)
	if pIx < 0 || bIx < 0 {
		return nil, nil, fmt.Errorf("volcano: join keys %s/%s not found", j.ProbeKey, j.BuildKey)
	}
	var outFields expr.Fields
	if j.Semi {
		outFields = probeFields
	} else {
		outFields = append(append(expr.Fields{}, probeFields...), buildFields...)
	}
	if j.Residual != nil {
		// The residual sees the concatenated row (or just the probe row
		// for semijoins, where build attributes must not escape).
		if err := expr.Bind(j.Residual, outFields); err != nil {
			return nil, nil, err
		}
	}
	it := &joinIter{
		spec:       j,
		probe:      probe,
		buildIt:    buildSide,
		probeKeyIx: pIx,
		buildKeyIx: bIx,
		nBuildCols: len(buildFields),
	}
	return it, outFields, nil
}

func (it *joinIter) open() error {
	if err := it.buildIt.open(); err != nil {
		return err
	}
	defer it.buildIt.close()
	if it.spec.Semi {
		it.set = ht.NewSetTable(1024)
	} else {
		it.table = ht.NewJoinTable(1024)
	}
	it.buildRows = nil
	for {
		row, ok, err := it.buildIt.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		key := row[it.buildKeyIx]
		if it.spec.Semi {
			it.set.Insert(key)
		} else {
			if !it.table.Insert(key, int32(len(it.buildRows))) {
				return fmt.Errorf("volcano: duplicate build key %d in inner join on %s", key, it.spec.BuildKey)
			}
			it.buildRows = append(it.buildRows, row)
		}
	}
	return it.probe.open()
}

func (it *joinIter) next() (Row, bool, error) {
	for {
		row, ok, err := it.probe.next()
		if !ok || err != nil {
			return nil, false, err
		}
		key := row[it.probeKeyIx]
		if it.spec.Semi {
			if !it.set.Contains(key) {
				continue
			}
			if it.spec.Residual != nil && expr.Eval(it.spec.Residual, 0, row) == 0 {
				continue
			}
			return row, true, nil
		}
		bRow, found := it.table.Probe(key)
		if !found {
			continue
		}
		out := make(Row, 0, len(row)+it.nBuildCols)
		out = append(append(out, row...), it.buildRows[bRow]...)
		if it.spec.Residual != nil && expr.Eval(it.spec.Residual, 0, out) == 0 {
			continue
		}
		return out, true, nil
	}
}

func (it *joinIter) close() { it.probe.close() }

// groupJoinIter implements the groupjoin: build rows are loaded with empty
// aggregate state, probe rows aggregate into their matching group, then
// groups stream out (all of them when Outer, matched ones otherwise).
type groupJoinIter struct {
	spec    *plan.GroupJoin
	fields  expr.Fields
	openFn  func() error
	rows    []Row
	matched []bool
	accs    [][]accState
	pos     int
}

func buildGroupJoin(g *plan.GroupJoin, db source) (iterator, expr.Fields, error) {
	buildSide, buildFields, err := build(g.Build, db)
	if err != nil {
		return nil, nil, err
	}
	probe, probeFields, err := build(g.Probe, db)
	if err != nil {
		return nil, nil, err
	}
	bIx := buildFields.Index(g.BuildKey)
	pIx := probeFields.Index(g.ProbeKey)
	if bIx < 0 || pIx < 0 {
		return nil, nil, fmt.Errorf("volcano: groupjoin keys %s/%s not found", g.BuildKey, g.ProbeKey)
	}
	for i := range g.Aggs {
		if g.Aggs[i].Arg != nil {
			if err := expr.Bind(g.Aggs[i].Arg, probeFields); err != nil {
				return nil, nil, err
			}
		}
	}
	outFields := append(expr.Fields{}, buildFields...)
	for _, a := range g.Aggs {
		outFields = append(outFields, expr.Field{Name: a.As, Log: storage.LogInt})
	}
	it := &groupJoinIter{spec: g, fields: outFields}
	it.init(buildSide, probe, bIx, pIx)
	return it, outFields, nil
}

// init stashes the pieces needed by open.
func (it *groupJoinIter) init(buildSide, probe iterator, bIx, pIx int) {
	it.openFn = func() error {
		if err := buildSide.open(); err != nil {
			return err
		}
		table := ht.NewJoinTable(1024)
		it.rows = nil
		for {
			row, ok, err := buildSide.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if !table.Insert(row[bIx], int32(len(it.rows))) {
				return fmt.Errorf("volcano: duplicate build key %d in groupjoin", row[bIx])
			}
			it.rows = append(it.rows, row)
		}
		buildSide.close()

		it.matched = make([]bool, len(it.rows))
		it.accs = make([][]accState, len(it.rows))
		for i := range it.accs {
			it.accs[i] = newAccStates(it.spec.Aggs)
		}
		if err := probe.open(); err != nil {
			return err
		}
		defer probe.close()
		for {
			row, ok, err := probe.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			slot, found := table.Probe(row[pIx])
			if !found {
				continue
			}
			it.matched[slot] = true
			updateAccStates(it.accs[slot], it.spec.Aggs, row)
		}
		it.pos = 0
		return nil
	}
}

func (it *groupJoinIter) open() error { return it.openFn() }

func (it *groupJoinIter) next() (Row, bool, error) {
	for it.pos < len(it.rows) {
		i := it.pos
		it.pos++
		if !it.spec.Outer && !it.matched[i] {
			continue
		}
		out := make(Row, 0, len(it.rows[i])+len(it.spec.Aggs))
		out = append(out, it.rows[i]...)
		for a := range it.spec.Aggs {
			out = append(out, it.accs[i][a].finalize(it.spec.Aggs[a].Func))
		}
		return out, true, nil
	}
	return nil, false, nil
}

func (it *groupJoinIter) close() {}
