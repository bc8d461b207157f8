package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Parent is the index of the enclosing span, or -1.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Stmt     string `json:"stmt,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, which is what gated runs use.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name, stmt string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Stmt: stmt, Parent: parent, Workload: t.workload,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// rungRow is one line of the layer ladder: a rung's corrected median for
// one statement and its self time, the rung minus the rung beneath it.
type rungRow struct {
	Stmt   string  `json:"stmt"`
	Rung   string  `json:"rung"`
	N      int     `json:"n"`
	P50MS  float64 `json:"p50_ms"`
	SelfMS float64 `json:"self_ms"`
}

// traceFile is what -trace writes to <out>/trace-<workload>.json.
type traceFile struct {
	Provenance map[string]any `json:"provenance"`
	Ladder     []rungRow      `json:"ladder"`
	Spans      []span         `json:"spans"`
	SelfNS     []int64        `json:"self_ns"`
}

func (t *tracer) write(dir string, prov map[string]any, ladder []rungRow) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	b, err := json.Marshal(traceFile{Provenance: prov, Ladder: ladder, Spans: t.spans, SelfNS: selfTimes(t.spans)})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
