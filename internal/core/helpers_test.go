package core

import (
	"context"
	"testing"
)

// once runs a freshly prepared plan a single time — the whole prepare-and-
// run life cycle in one expression: once(e.PrepareGroupAgg(q)).
func once[R any](p interface {
	RunContext(context.Context) (R, Explain, error)
}, err error) (R, Explain, error) {
	if err != nil {
		var zero R
		return zero, Explain{}, err
	}
	return p.RunContext(context.Background())
}

// groupsOnce is once for the group shapes, flattened to a key→sum map.
func groupsOnce(p interface {
	RunContext(context.Context) (*GroupResult, Explain, error)
}, err error) (map[int64]int64, Explain, error) {
	res, ex, err := once(p, err)
	if err != nil {
		return nil, ex, err
	}
	return groupMap(res), ex, nil
}

// groupMap flattens a GroupResult to a key→sum map.
func groupMap(g *GroupResult) map[int64]int64 {
	out := make(map[int64]int64, g.Len())
	for i := 0; i < g.Len(); i++ {
		out[g.Key(i)] = g.Sum(i)
	}
	return out
}

// resultMap flattens a plan's answer the way volcanoMap flattens the
// interpreter's: single values under key 0, (key, sum) rows by key.
func resultMap(r *SelectResult) map[int64]int64 {
	out := map[int64]int64{}
	for _, row := range selectRows(r) {
		if len(row) == 1 {
			out[0] = row[0]
		} else {
			out[row[0]] = row[1]
		}
	}
	return out
}

// selectRows frames a generic plan's flat answer as one header per row.
func selectRows(r *SelectResult) [][]int64 {
	var rows [][]int64
	for w, i := len(r.Fields), 0; i+w <= len(r.Flat); i += w {
		rows = append(rows, r.Flat[i:i+w])
	}
	return rows
}

// sumRunner prepares an ungrouped single-aggregate spec through
// Engine.Prepare and returns its re-runnable form: each call runs the plan
// and reads the one result cell.
func sumRunner(e *Engine, spec Select) (func() (int64, Explain), error) {
	p, err := e.Prepare(spec)
	if err != nil {
		return nil, err
	}
	return func() (int64, Explain) {
		res, ex, err := p.RunContext(context.Background())
		if err != nil {
			panic(err)
		}
		return res.Flat[0], ex
	}, nil
}

// sumOnce is sumRunner run a single time.
func sumOnce(e *Engine, spec Select) (int64, Explain, error) {
	run, err := sumRunner(e, spec)
	if err != nil {
		return 0, Explain{}, err
	}
	sum, ex := run()
	return sum, ex, nil
}

// forcedOnce prepares the spec under a forced technique and runs it once.
func forcedOnce(e *Engine, spec Select, tech Technique) (*SelectResult, error) {
	p, err := e.PrepareForced(spec, tech)
	if err != nil {
		return nil, err
	}
	res, _, err := p.RunContext(context.Background())
	return res, err
}

func forcedScalar(e *Engine, q ScalarAgg, tech Technique) (int64, error) {
	res, err := forcedOnce(e, scalarSpec(q), tech)
	if err != nil {
		return 0, err
	}
	return res.Flat[0], nil
}

func forcedGroups(e *Engine, q GroupAgg, tech Technique) (map[int64]int64, error) {
	res, err := forcedOnce(e, groupSpec(q), tech)
	if err != nil {
		return nil, err
	}
	return resultMap(res), nil
}

// sameGroups reports the first group on which got and want disagree.
func sameGroups(t *testing.T, tag string, got, want map[int64]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d groups, want %d", tag, len(got), len(want))
		return
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: key %d = %d, want %d", tag, k, got[k], w)
			return
		}
	}
}
