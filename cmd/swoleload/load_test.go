package main

import (
	"context"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	swole "github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/serve"
)

// liveServer boots a real serve.Server with the given admission bounds
// over a small microbenchmark DB on a loopback port and returns its base
// URL — the load driver's goroutines then race against the full serving
// stack (admission, execution, metrics), which is exactly what
// `go test -race ./cmd/swoleload/...` is for.
func liveServer(t *testing.T, maxInFlight, maxQueue int) string {
	t.Helper()
	db, err := swole.LoadMicro(swole.MicroConfig{Rows: 20_000, DimRows: 200, GroupKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	s := serve.New(db, serve.Config{
		Addr:        "127.0.0.1:0",
		MaxInFlight: maxInFlight,
		MaxQueue:    maxQueue,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return "http://" + s.Addr()
}

// testDuration is a sub-second load under -short and two seconds
// otherwise.
func testDuration() time.Duration {
	if testing.Short() {
		return 400 * time.Millisecond
	}
	return 2 * time.Second
}

// TestRunAgainstLiveServer drives a short paced run and checks the
// report's accounting: every request came back OK, the histogram holds
// them all, and the scraped attribution saw the same window.
func TestRunAgainstLiveServer(t *testing.T) {
	base := liveServer(t, 4, 64)
	rep := run(context.Background(), base, 200, 8, testDuration(), 0)
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Outcomes.OK != rep.Requests {
		t.Fatalf("outcomes not all OK: %+v of %d requests", rep.Outcomes, rep.Requests)
	}
	if rep.errorRate() != 0 {
		t.Fatalf("errorRate = %g with all-OK outcomes", rep.errorRate())
	}
	if rep.P50ms <= 0 || rep.P99ms < rep.P50ms || rep.MaxMs < rep.P99ms {
		t.Fatalf("quantiles disordered: p50=%g p99=%g max=%g", rep.P50ms, rep.P99ms, rep.MaxMs)
	}
	if rep.Server == nil {
		t.Fatal("no server attribution despite live /metrics")
	}
	if rep.Server.Queries < rep.Outcomes.OK {
		t.Fatalf("server saw %d queries, client completed %d", rep.Server.Queries, rep.Outcomes.OK)
	}
	if rep.Server.ExecSeconds <= 0 {
		t.Fatalf("attribution found no execution time: %+v", rep.Server)
	}
	if v := rep.gate(0); len(v) != 0 {
		t.Fatalf("gate violations on a clean run: %v", v)
	}
	if v := rep.gate(time.Nanosecond); len(v) != 1 || !strings.Contains(v[0], "p99") {
		t.Fatalf("1ns p99 gate did not trip: %v", v)
	}
}

// TestRunRejectedFailsGate pins the error side of the gate: with one
// execution slot and no admission queue, the eight connections' requests
// collide, the server answers some of them 429, and the run fails on its
// error rate even though the p99 bound is off.
func TestRunRejectedFailsGate(t *testing.T) {
	base := liveServer(t, 1, -1) // serve reads MaxQueue 0 as its default; -1 is no queue
	rep := run(context.Background(), base, 4000, 8, testDuration(), 0)
	if rep.Outcomes.Rejected == 0 {
		t.Fatalf("no request was refused admission: %+v", rep.Outcomes)
	}
	v := rep.gate(0)
	if len(v) != 1 || !strings.Contains(v[0], "error rate") {
		t.Fatalf("gate = %v, want one error-rate violation (outcomes %+v)", v, rep.Outcomes)
	}
}

// TestBuildCycleFractions pins the op cycle for CI's two ingest weights,
// slot by slot ('s' the scalar read, 'g' the grouped one, 'i' an ingest
// batch): read-only, the four reads of the 3:1 mix; at 10 %, a 40-slot
// block ten times over, one ingest after every nine reads, so both the
// mix and the ingest share hold exactly and no two ingests are adjacent.
func TestBuildCycleFractions(t *testing.T) {
	for _, tc := range []struct {
		weight int
		want   string
	}{
		{0, "sssg"},
		{10, strings.Repeat("sssgsssgsi"+"ssgsssgssi"+"sgsssgsssi"+"gsssgsssgi", 10)},
	} {
		var got strings.Builder
		for _, o := range buildCycle(tc.weight) {
			switch {
			case o.ingest:
				got.WriteByte('i')
			case o.sql == scalarSQL:
				got.WriteByte('s')
			case o.sql == groupedSQL:
				got.WriteByte('g')
			default:
				t.Fatalf("weight %d: unknown read %q", tc.weight, o.sql)
			}
		}
		if got.String() != tc.want {
			t.Errorf("weight %d: cycle (len %d)\n%s\nwant (len %d)\n%s", tc.weight, got.Len(), got.String(), len(tc.want), tc.want)
		}
	}
}

// TestIngestWeightFlag pins -ingest-weight's range: a percent in 0..99
// parses, anything else is a parse error (exit status 2 on the command
// line) rather than a cycle with no reads or no writes.
func TestIngestWeightFlag(t *testing.T) {
	for _, tc := range []struct {
		arg string
		ok  bool
	}{
		{"-1", false}, {"0", true}, {"10", true}, {"99", true}, {"100", false}, {"150", false},
	} {
		fs := flag.NewFlagSet("swoleload", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var w ingestWeight
		fs.Var(&w, "ingest-weight", "")
		err := fs.Parse([]string{"-ingest-weight=" + tc.arg})
		if (err == nil) != tc.ok {
			t.Errorf("-ingest-weight=%s: err = %v, want ok %v", tc.arg, err, tc.ok)
		}
		if tc.ok && w.String() != tc.arg {
			t.Errorf("-ingest-weight=%s parsed as %s", tc.arg, w.String())
		}
	}
}

// TestRunMixedIngest drives a 90/10 read/ingest run against a live
// server and checks the split accounting: read quantiles exclude ingest
// samples, the ingest section tallies its own outcomes and row counts,
// and the scraped attribution reports the appended rows.
func TestRunMixedIngest(t *testing.T) {
	base := liveServer(t, 4, 64)
	rep := run(context.Background(), base, 200, 8, testDuration(), 10)
	if rep.Requests == 0 || rep.Outcomes.OK != rep.Requests {
		t.Fatalf("read side not clean: %+v of %d", rep.Outcomes, rep.Requests)
	}
	ing := rep.Ingest
	if ing == nil || ing.Requests == 0 {
		t.Fatalf("no ingest stats on a mixed run: %+v", ing)
	}
	if ing.Outcomes.OK != ing.Requests {
		t.Fatalf("ingest side not clean: %+v of %d", ing.Outcomes, ing.Requests)
	}
	if want := ing.Requests * batchRows; ing.RowsAccepted != want {
		t.Fatalf("rows accepted = %d over %d batches, want %d", ing.RowsAccepted, ing.Requests, want)
	}
	if ing.RowsRejected != 0 {
		t.Fatalf("clean batches rejected %d rows", ing.RowsRejected)
	}
	if ing.P50ms <= 0 || ing.MaxMs < ing.P50ms {
		t.Fatalf("ingest quantiles disordered: p50=%g max=%g", ing.P50ms, ing.MaxMs)
	}
	if rep.errorRate() != 0 {
		t.Fatalf("errorRate = %g on a clean mixed run", rep.errorRate())
	}
	if rep.Server == nil {
		t.Fatal("no server attribution")
	}
	if rep.Server.IngestRows != ing.RowsAccepted {
		t.Fatalf("server counted %d ingested rows, client %d", rep.Server.IngestRows, ing.RowsAccepted)
	}
	if rep.Server.IngestSeconds <= 0 {
		t.Fatalf("no server-side ingest time: %+v", rep.Server)
	}
	// Ingest batches must not have leaked into the read-side histogram:
	// the server's read-query count matches the read requests alone.
	if rep.Server.Queries < rep.Outcomes.OK || rep.Server.Queries > rep.Outcomes.OK+8 {
		t.Fatalf("server read-query count %d vs client reads %d", rep.Server.Queries, rep.Outcomes.OK)
	}
}
