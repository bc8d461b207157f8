package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	swole "github.com/reprolab/swole"
)

// post drives one POST /query through the server's handler stack (recover
// wrapper, mux, handler) without a listener.
func post(s *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.http.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	return rec
}

func queryBody(q string) []byte {
	b, _ := json.Marshal(queryRequest{Query: q, TimeoutMS: -1})
	return b
}

// queryResponse decodes a /query success body (appendAnswer writes it).
type queryResponse struct {
	Columns []string       `json:"columns"`
	Rows    [][]int64      `json:"rows"`
	Explain *swole.Explain `json:"explain,omitempty"`
}

// reflected is the /query success body as the server wrote it before it
// stopped reflecting: json.NewEncoder over the response struct.
func reflected(cols []string, flat []int64, width int, ex swole.Explain) []byte {
	resp := queryResponse{Columns: append([]string{}, cols...), Rows: [][]int64{}, Explain: &ex}
	for i := 0; width > 0 && i+width <= len(flat); i += width {
		resp.Rows = append(resp.Rows, flat[i:i+width])
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(resp); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// appendAnswerRef is appendAnswer as it was written with strconv.AppendInt:
// the reference FuzzAppendAnswer and BenchmarkAppendAnswer hold the table
// writer to.
func appendAnswerRef(b []byte, cols []string, flat []int64, width int) []byte {
	comma := []byte(",")
	b = append(b, `{"columns":[`...)
	for _, c := range cols {
		b = append(appendName(b, c), ',')
	}
	b = append(bytes.TrimSuffix(b, comma), `],"rows":[`...)
	for i := 0; width > 0 && i+width <= len(flat); i += width {
		b = append(b, '[')
		for _, v := range flat[i : i+width] {
			b = append(strconv.AppendInt(b, v, 10), ',')
		}
		b = append(b[:len(b)-1], ']', ',')
	}
	return append(bytes.TrimSuffix(b, comma), ']')
}

// boundaryValues are the int64s where a decimal writer changes its number of
// digits or of four-digit groups: 0, ±(10^k − 1), ±10^k and ±(10^k + 1) for
// k = 1…18 (9999/10000 and 99999999/100000000 among them), and both ends of
// the type.
func boundaryValues() []int64 {
	vs := []int64{0, math.MinInt64, math.MaxInt64}
	for k, p := 1, int64(10); k <= 18; k, p = k+1, p*10 {
		vs = append(vs, p-1, p, p+1, 1-p, -p, -p-1)
	}
	return vs
}

// TestQueryBodyMatchesReflectedEncoding is the wire-compatibility property:
// for the boundary values at every width and for randomized answers — no
// rows, no columns, extreme and negative values, column names encoding/json
// escapes — the body is byte for byte what json.NewEncoder wrote for the old
// response struct, with its length announced.
func TestQueryBodyMatchesReflectedEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names := []string{"s", "r_c", `say "hi"`, "a<b", "x&y", "q>r", "naïve", "日本", "tab\there", `back\slash`, "", "\x7f", " "}
	values := append([]int64{1, -1, 42, -9_000_000_000}, boundaryValues()...)
	for trial := 0; trial < 305; trial++ {
		width := rng.Intn(5)
		nrows := rng.Intn(6)
		if trial%7 == 0 {
			nrows = 0
		}
		cols := make([]string, width)
		for i := range cols {
			cols[i] = names[rng.Intn(len(names))]
		}
		flat := make([]int64, width*nrows)
		for i := range flat {
			if flat[i] = values[rng.Intn(len(values))]; rng.Intn(2) == 0 {
				flat[i] = rng.Int63() - rng.Int63()
			}
		}
		if trial >= 300 { // the whole boundary table, at widths 1…5
			width = trial - 299
			cols, flat = names[:width], boundaryValues()
		}
		ex := swole.Explain{
			Technique: "hybrid", Shape: names[rng.Intn(len(names))], Selectivity: rng.Float64(),
			Costs: map[string]float64{"a<b": rng.Float64(), "hashed": 1e21}, PlanCached: trial%2 == 0,
			PrepareTime: time.Duration(rng.Intn(1e6)), Merged: []string{"a", "b"},
		}
		s := NewWithRunner(func(_ context.Context, _ string, rows func([]string, []int64, int)) (swole.Explain, error) {
			rows(cols, flat, width)
			return ex, nil
		}, Config{})
		rec := post(s, queryBody("q"))
		want := reflected(cols, flat, width, ex)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("trial %d: status %d\n got  %s\n want %s", trial, rec.Code, rec.Body.Bytes(), want)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(want)) {
			t.Fatalf("trial %d: Content-Length %q, body has %d bytes", trial, got, len(want))
		}
	}
}

// TestBackendWithoutRows pins the nil-answer defect: a backend that succeeds
// without presenting anything (the old signature's (nil, ex, nil), which
// panicked the connection goroutine) answers no columns and "rows":[].
func TestBackendWithoutRows(t *testing.T) {
	s := NewWithRunner(func(context.Context, string, func([]string, []int64, int)) (swole.Explain, error) {
		return swole.Explain{Shape: "stub"}, nil
	}, Config{})
	rec := post(s, queryBody("q"))
	want := reflected(nil, nil, 0, swole.Explain{Shape: "stub"})
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) || !bytes.Contains(want, []byte(`"rows":[]`)) {
		t.Fatalf("status %d body %s, want %s", rec.Code, rec.Body.Bytes(), want)
	}
}

// TestRowFunctionPanicContained pins the other one: the row function runs
// under the statement's entry lock, so a panic inside it must be answered
// (500, outcome error, swole_panics_total) with every hold released — the
// entry lock, the admission slot (one here, so a leaked slot would hang the
// retry) and the in-flight gauge — and the same statement must answer
// correctly on the next request.
func TestRowFunctionPanicContained(t *testing.T) {
	db := newTestDB(t)
	const q = "SELECT a, SUM(b) FROM t WHERE a < 3 GROUP BY a"
	var calls atomic.Int64
	s := NewWithRunner(func(ctx context.Context, q string, rows func([]string, []int64, int)) (swole.Explain, error) {
		return db.QueryRows(ctx, q, func(cols []string, flat []int64, width int) {
			if calls.Add(1) == 2 { // the first call compiled the plan; fail the first cached one
				panic("encoder fault")
			}
			rows(cols, flat, width)
		})
	}, Config{MaxInFlight: 1, MaxQueue: -1})

	first := post(s, queryBody(q))
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", first.Code, first.Body.Bytes())
	}
	rec := post(s, queryBody(q))
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusInternalServerError ||
		er.Outcome != outcomeError || !strings.Contains(er.Error, "encoder fault") {
		t.Fatalf("panicking request: status %d body %s (err %v), want a 500 naming the fault", rec.Code, rec.Body.Bytes(), err)
	}
	if n := s.m.panics.Load(); n != 1 {
		t.Errorf("swole_panics_total = %d, want 1", n)
	}
	if n := s.m.inflight.Load(); n != 0 {
		t.Errorf("in-flight gauge = %d after the panic", n)
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(s, queryBody(q)) }()
	select {
	case rec = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the statement's next request hangs: the panic left a lock or the admission slot held")
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rowsOf(t, rec.Body.Bytes()), rowsOf(t, first.Body.Bytes())) {
		t.Fatalf("next request: status %d body %s, want the first answer's rows %s", rec.Code, rec.Body.Bytes(), first.Body.Bytes())
	}
	var b strings.Builder
	s.m.render(&b)
	if !strings.Contains(b.String(), "swole_panics_total 1") {
		t.Errorf("metrics missing swole_panics_total 1:\n%s", b.String())
	}
}

// rowsOf is the rows member of a success body, re-marshaled.
func rowsOf(t *testing.T, body []byte) []byte {
	t.Helper()
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("body does not parse: %v (%.200s)", err, body)
	}
	out, _ := json.Marshal(qr.Rows)
	return out
}

// TestEncodeAllocatesNothingWarm: once the pooled buffer has grown to the
// answer's size, encoding a 10K-row answer allocates nothing — what a
// request still allocates is the Explain marshal and net/http's own — and a
// buffer that outgrew the cap is dropped, not pooled.
func TestEncodeAllocatesNothingWarm(t *testing.T) {
	cols := []string{"r_c", "s"}
	flat := make([]int64, 2*10_000)
	for i := range flat {
		flat[i] = int64(i)*7919 - 40_000_000
	}
	buf := appendAnswer(nil, cols, flat, 2)
	if allocs := testing.AllocsPerRun(20, func() { buf = appendAnswer(buf[:0], cols, flat, 2) }); allocs != 0 {
		t.Errorf("warm appendAnswer over 10K rows: %.1f allocations, want 0", allocs)
	}

	small, big := make([]byte, 0, 64), make([]byte, 0, maxPooledBody+1)
	p := &small
	putBody(p, big)
	if cap(*p) != cap(small) {
		t.Error("a buffer above maxPooledBody was kept for the pool")
	}
	putBody(p, big[:0:maxPooledBody])
	if cap(*p) != maxPooledBody {
		t.Error("a buffer at the cap was not kept")
	}
}

// FuzzAppendAnswer holds the table writer to the strconv reference byte for
// byte: any int64s, read eight bytes each from the fuzzer's data, at widths
// 0…5, under any column names (split on NUL).
func FuzzAppendAnswer(f *testing.F) {
	var seed []byte
	for _, v := range boundaryValues() {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(v))
	}
	f.Add(uint8(1), seed, "v")
	f.Add(uint8(2), seed, "r_c\x00s")
	f.Add(uint8(3), seed[:8*7], "a<b\x00\x00naïve")
	f.Add(uint8(5), seed, "")
	f.Add(uint8(0), seed[:8], "x")
	var got, want []byte
	f.Fuzz(func(t *testing.T, w uint8, data []byte, names string) {
		width := int(w % 6)
		flat := make([]int64, len(data)/8)
		for i := range flat {
			flat[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var cols []string
		if names != "" {
			cols = strings.Split(names, "\x00")
		}
		got = appendAnswer(got[:0], cols, flat, width)
		want = appendAnswerRef(want[:0], cols, flat, width)
		if !bytes.Equal(got, want) {
			t.Fatalf("width %d, values %v, columns %q:\n got  %s\n want %s", width, flat, cols, got, want)
		}
	})
}

// BenchmarkAppendAnswer times the table writer against the strconv reference
// on two 2-column answers: gc_shape is group_r_c.s50's (99K ascending keys,
// sums under 1,000), wide is random 63-bit values of both signs.
func BenchmarkAppendAnswer(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	const rows = 99_000
	gc, wide := make([]int64, 2*rows), make([]int64, 2*rows)
	for i := 0; i < rows; i++ {
		gc[2*i], gc[2*i+1] = int64(i), rng.Int63n(1000)
		wide[2*i], wide[2*i+1] = rng.Int63()-rng.Int63(), rng.Int63()-rng.Int63()
	}
	cols := []string{"r_c", "s"}
	for _, shape := range []struct {
		name string
		flat []int64
	}{{"gc_shape", gc}, {"wide", wide}} {
		for _, enc := range []struct {
			name string
			fn   func([]byte, []string, []int64, int) []byte
		}{{"table", appendAnswer}, {"strconv", appendAnswerRef}} {
			b.Run(shape.name+"/"+enc.name, func(b *testing.B) {
				buf := enc.fn(nil, cols, shape.flat, 2)
				b.SetBytes(int64(len(buf)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = enc.fn(buf[:0], cols, shape.flat, 2)
				}
			})
		}
	}
}

// edgeStatements are valid statements that used to panic one evaluator or
// another — column-valued IN items, divisors that reach zero on rows the
// predicate rejects, on rows it accepts, in the filter itself. They answer
// 200, and seed FuzzQueryBody.
var edgeStatements = []string{
	"SELECT SUM(b) FROM t WHERE a IN (b, 3)",
	"SELECT a, SUM(b) FROM t WHERE a IN (b - 4000, a / 0, 7) GROUP BY a",
	"SELECT a, SUM(b / (a - 5)) FROM t WHERE a <> 5 GROUP BY a",
	"SELECT SUM(b) FROM t WHERE b / (a - 5) > 1",
	"SELECT SUM(b / (a - 5)) FROM t",
}

func TestEdgeStatementsAnswer200(t *testing.T) {
	s := New(newTestDB(t), Config{})
	for _, q := range edgeStatements {
		if rec := post(s, queryBody(q)); rec.Code != http.StatusOK || s.m.panics.Load() != 0 {
			t.Errorf("%q: status %d, %d panics: %s", q, rec.Code, s.m.panics.Load(), rec.Body.Bytes())
		}
	}
}

// FuzzQueryBody: whatever bytes arrive as a POST /query body, the answer is
// well-formed JSON under a 2xx or 4xx status (504 when the body itself set a
// deadline) and no handler panics. The committed corpus
// (testdata/fuzz/FuzzQueryBody) runs under plain `go test`.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"query":"SELECT SUM(b) FROM t WHERE a < 50"}`,
		`{"query":"SELECT a, SUM(b) FROM t WHERE a < 7 OR b > 4000 GROUP BY a HAVING COUNT(*) > 1","timeout_ms":-1}`,
		`{"query":"SELECT a, b FROM t WHERE a = 3 ORDER BY b"}`,
		`{"query":"SELECT nope FROM nowhere"}`,
		`{"query":"select sum(b from t where"}`,
		`{"query":"SELECT MIN(a), MAX(b), AVG(b) FROM t WHERE NOT (a < 5)","timeout_ms":1}`,
		`{"query":"  "}`,
		`{"query":7}`,
		`{"timeout_ms":"soon"}`,
		`not json`,
		``,
		"{\"query\":\"SELECT '\\u0000' FROM t\"}",
	} {
		f.Add([]byte(seed))
	}
	for _, q := range edgeStatements {
		f.Add(queryBody(q))
	}
	db := newTestDB(f)
	s := New(db, Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(s, body)
		var req queryRequest
		_ = json.Unmarshal(body, &req)
		switch c := rec.Code; {
		case c >= 200 && c < 300, c >= 400 && c < 500:
		case c == http.StatusGatewayTimeout && req.TimeoutMS != 0:
		default:
			t.Fatalf("status %d for body %q: %s", c, body, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("malformed response to %q: %q", body, rec.Body.Bytes())
		}
		if n := s.m.panics.Load(); n != 0 {
			t.Fatalf("a handler panicked on %q: %s", body, rec.Body.Bytes())
		}
	})
}

// TestServeWhileAppending replays one grouped statement from two connections
// while a third appends CSV batches (never skipped: it is the race
// detector's view of the entry lock and the encoder reading plan-owned
// memory). Every body parses, a connection never sees the answer shrink, and
// QueryContext results taken before an append still hold their values after
// it.
func TestServeWhileAppending(t *testing.T) {
	db := newTestDB(t)
	base := startServer(t, New(db, Config{Addr: "127.0.0.1:0"}))
	const q = "SELECT b, SUM(a) FROM t WHERE a < 90 GROUP BY b"
	const batches, perBatch = 12, 50

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for c := 0; c < 2; c++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(queryBody(q)))
				if err != nil {
					t.Error(err)
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d, decode: %v", resp.StatusCode, err)
					return
				}
				if len(qr.Rows) < last {
					t.Errorf("answer shrank from %d to %d rows", last, len(qr.Rows))
					return
				}
				last = len(qr.Rows)
			}
		}()
	}

	type snapshot struct {
		res  *swole.Result
		rows string
	}
	var held []snapshot
	next := int64(1 << 20) // b values no existing row has: every appended row is a new group
	for i := 0; i < batches; i++ {
		res, _, err := db.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, snapshot{res, fmt.Sprint(res.Rows())})
		var csv strings.Builder
		for j := 0; j < perBatch; j++ {
			fmt.Fprintf(&csv, "1,%d\n", next)
			next++
		}
		if resp, body := postIngest(t, base, "table=t", csv.String()); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %d %s", resp.StatusCode, body)
		}
	}
	close(stop)
	readers.Wait()

	for i, h := range held {
		if got := fmt.Sprint(h.res.Rows()); got != h.rows {
			t.Fatalf("QueryContext result %d changed under later appends and queries", i)
		}
		if i > 0 && h.res.NumRows() != held[i-1].res.NumRows()+perBatch {
			t.Fatalf("snapshot %d has %d rows, the one before %d, batch %d", i, h.res.NumRows(), held[i-1].res.NumRows(), perBatch)
		}
	}
}
