package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/ingest"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// kernelRows caps the rows a standalone kernel rung sweeps per call.
const kernelRows = 1 << 20

// timeRung repeats fn rungReps times, one span per call, and returns the
// corrected median duration in milliseconds.
func timeRung(name string, ref *refKernel, tr *tracer, reps int, fn func()) float64 {
	r0 := ref.ms()
	durs := make([]float64, reps)
	for i := range durs {
		id := tr.begin(name, "", -1)
		t0 := time.Now()
		fn()
		durs[i] = ms(time.Since(t0))
		tr.end(id)
	}
	return correctOne(median(durs), r0, ref.ms())
}

func int8Col(t *storage.Table, name string, n int) ([]int8, error) {
	c := t.Column(name)
	if c == nil || c.Kind != storage.KindInt8 {
		return nil, fmt.Errorf("kernel rungs need %s.%s stored as int8", t.Name, name)
	}
	return c.I8[:n], nil
}

func wideCol(t *storage.Table, name string, n int) []int64 {
	out := make([]int64, n)
	t.MustColumn(name).WidenInto(0, n, out)
	return out
}

// kernelRungs times the vec, bitmap, ht and exec kernels alone, over the
// workload's own fact-table columns.
func kernelRungs(w *workload, own *storage.Database, ref *refKernel, tr *tracer, v map[string]float64) error {
	t := own.MustTable(w.cols.fact)
	n := min(t.Rows(), kernelRows)
	f, err := int8Col(t, w.cols.filter, n)
	if err != nil {
		return err
	}
	a, err := int8Col(t, w.cols.a, n)
	if err != nil {
		return err
	}
	b, err := int8Col(t, w.cols.b, n)
	if err != nil {
		return err
	}
	perUS := func(msPerCall float64) float64 { return float64(n) / (msPerCall * 1e3) }
	perRowNS := func(msPerCall float64) float64 { return msPerCall * 1e6 / float64(n) }

	// Thresholds that select 5, 50 and 95 percent of the filter column.
	sorted := append([]int8(nil), f[:min(n, 1<<16)]...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cmp := map[string][]byte{}
	for _, sel := range []int{5, 50, 95} {
		c := make([]byte, n)
		k := sorted[len(sorted)*sel/100]
		vec.Tiles(n, func(base, length int) { vec.CmpConstLTU(f[base:base+length], k, c[base:base+length]) })
		cmp[fmt.Sprintf("s%02d", sel)] = c
	}
	mid := sorted[len(sorted)/2]
	out := make([]byte, vec.TileSize)
	v["vec.cmp_rows_per_us"] = perUS(timeRung("vec.cmp", ref, tr, rungReps, func() {
		vec.Tiles(n, func(base, length int) { vec.CmpConstLTU(f[base:base+length], mid, out[:length]) })
	}))
	sel := make([]int32, vec.TileSize)
	for name, c := range cmp {
		v["vec.sel_rows_per_us."+name] = perUS(timeRung("vec.sel."+name, ref, tr, rungReps, func() {
			vec.Tiles(n, func(base, length int) { vec.SelFromCmpAdaptive(c[base:base+length], sel) })
		}))
	}
	var sink int64
	v["vec.summasked_rows_per_us"] = perUS(timeRung("vec.summasked", ref, tr, rungReps, func() {
		vec.Tiles(n, func(base, length int) {
			sink += vec.SumProdMaskedU(a[base:base+length], b[base:base+length], cmp["s50"][base:base+length])
		})
	}))

	bm := bitmap.New(n)
	v["bitmap.build_rows_per_us"] = perUS(timeRung("bitmap.build", ref, tr, rungReps, func() {
		vec.Tiles(n, func(base, length int) { bm.SetFromCmp(base, cmp["s50"][base:base+length]) })
	}))
	v["bitmap.or_rows_per_us"] = perUS(timeRung("bitmap.or", ref, tr, rungReps, func() {
		vec.Tiles(n, func(base, length int) { bm.OrFromCmp(base, cmp["s05"][base:base+length]) })
	}))

	fold := func(name, key string, hint int) float64 {
		keys := wideCol(t, key, n)
		tab := ht.NewAggTable(1, hint)
		return perRowNS(timeRung(name, ref, tr, rungMinReps, func() {
			tab.Reset()
			for _, k := range keys {
				tab.Add(tab.Lookup(k), 0, 1)
			}
		}))
	}
	v["ht.fold_ns_per_row.g100"] = fold("ht.fold.g100", w.cols.lowKey, 128)
	v["ht.fold_ns_per_row.g1m"] = fold("ht.fold.g1m", w.cols.highKey, n)
	keys := wideCol(t, w.cols.highKey, n)
	part := ht.NewPartitioner(64)
	v["ht.scatter_ns_per_row"] = perRowNS(timeRung("ht.scatter", ref, tr, rungMinReps, func() {
		part.Reset()
		for _, k := range keys {
			part.Append(k, 1)
		}
	}))

	gang := exec.NewWorkers(gatedWorkers, 0)
	defer gang.Close()
	v["exec.dispatch_us"] = 1e3 * timeRung("exec.dispatch", ref, tr, rungReps, func() {
		gang.Run(t.Rows(), func(worker, base, length int) {})
	})
	_ = sink
	return nil
}

// appendRungs times the write path: the CSV kernel alone, DB.AppendCSV,
// DB.AppendRows, POST /ingest, and the first read after an append. The
// appended rows are copies of the fact table's first rows.
func appendRungs(e *env, own *storage.Database, ref *refKernel, tr *tracer, l *ladder, probe *stmt, t *tally, v map[string]float64) error {
	tab := own.MustTable(e.w.cols.fact)
	batch := csvOf(tab, 0, ingestRows)

	k, err := ingest.NewKernel(ingest.SchemaFor(tab), ingest.Strict)
	if err != nil {
		return err
	}
	big := csvOf(tab, 0, min(tab.Rows(), 8*ingestRows))
	parseMS := timeRung("ingest.parse", ref, tr, rungReps, func() {
		k.Reset()
		err = k.Parse(big)
	})
	if err != nil || k.Accepted() == 0 {
		return fmt.Errorf("ingest kernel: %d rows accepted: %v", k.Accepted(), err)
	}
	v["ingest.parse_rows_per_s"] = float64(k.Accepted()) / (parseMS / 1e3)

	// Each append is followed by the first read of a warm statement: the
	// append evicted its plan, so the read recompiles.
	warm, _ := l.get(rungWarm, probe)
	var appendMS, rttMS, recompileMS []float64
	r0 := ref.ms()
	for i := 0; i < rungMinReps; i++ {
		for _, viaHTTP := range []bool{false, true} {
			before := e.db.PlanCacheLen()
			id := tr.begin("ingest.append", "", -1)
			d, n, err := e.ingest(batch, viaHTTP)
			tr.end(id)
			t.attempted++
			t.ingests++
			t.evictions += before - e.db.PlanCacheLen()
			if err != nil || n != ingestRows {
				return fmt.Errorf("append: %d rows accepted: %v", n, err)
			}
			if viaHTTP {
				rttMS = append(rttMS, ms(d))
			} else {
				appendMS = append(appendMS, ms(d))
			}
			id = tr.begin("ingest.recompile", probe.id, -1)
			o, err := e.queryLocal(probe, false)
			tr.end(id)
			t.observe(e, probe, o, err)
			recompileMS = append(recompileMS, ms(o.dur))
		}
	}
	r1 := ref.ms()
	v["ingest.append_rows_per_s"] = ingestRows / (correctOne(median(appendMS), r0, r1) / 1e3)
	v["serve.ingest_rtt_p50_ms"] = correctOne(median(rttMS), r0, r1)
	v["ingest.recompile_ms"] = correctOne(median(recompileMS), r0, r1) - warm

	rows := make([][]int64, ingestRows)
	for i := range rows {
		rows[i] = make([]int64, len(tab.Columns))
		for c, col := range tab.Columns {
			rows[i][c] = col.Get(i)
		}
	}
	rowsMS := timeRung("storage.append", ref, tr, rungMinReps, func() { err = e.db.AppendRows(e.w.cols.fact, rows) })
	if err != nil {
		return err
	}
	e.rowsInR += rungMinReps * ingestRows
	e.state = fmt.Sprintf("rows=%d", e.rowsInR)
	v["storage.append_ns_per_row"] = rowsMS * 1e6 / ingestRows
	return nil
}
