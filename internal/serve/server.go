package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	swole "github.com/reprolab/swole"
)

// Package serve is the concurrent query-serving subsystem: an HTTP front
// end over a swole.DB with admission control, per-query deadlines,
// cooperative cancellation, and Prometheus-text metrics.
//
// The engine executes one SWOLE plan at a time (queries serialize on the
// plan-cache and gang locks; parallelism lives inside a query, in the
// morsel workers). The server therefore shapes load at the door rather
// than inside: MaxInFlight bounds admitted queries, MaxQueue bounds how
// many may wait for admission, and anything beyond that is refused
// immediately with 429 instead of piling onto a lock. Every admitted
// query runs under a context deadline, and the engine's morsel loops poll
// that context, so a timed-out query stops within one morsel and leaves
// its pooled execution state intact for the next run.

// Config parameterizes a Server. Zero values select the documented
// defaults.
type Config struct {
	// Addr is the listen address, e.g. ":8080" (default) or "127.0.0.1:0"
	// to pick a free port.
	Addr string
	// MaxInFlight bounds queries executing concurrently; default 4.
	MaxInFlight int
	// MaxQueue bounds queries waiting for admission; default 16. A query
	// arriving with MaxInFlight executing and MaxQueue waiting is refused
	// with HTTP 429.
	MaxQueue int
	// DefaultTimeout is the per-query deadline applied when the request
	// does not carry its own timeout_ms; default 30s. Zero means the
	// default; negative means no deadline.
	DefaultTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: how long Shutdown waits for
	// admitted queries to finish; default 10s.
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// QueryFunc is the execution backend: swole.(*DB).QueryRows in production, a
// stub in tests. A backend presents its answer by calling rows at most once
// (never: no columns, no rows) with the column names and the values as one
// flat row-major array; the server encodes inside the call, and both slices
// are the backend's again when it returns.
type QueryFunc func(ctx context.Context, q string, rows func(cols []string, flat []int64, width int)) (swole.Explain, error)

// IngestFunc is the write backend: swole.(*DB).AppendCSV in production.
// Servers without one (NewWithRunner tests) refuse POST /ingest with 501.
type IngestFunc func(table string, data []byte, policy swole.IngestPolicy) (swole.IngestReport, error)

// maxIngestBody caps a POST /ingest body. One batch parses and appends
// under the database's writer lock, so an unbounded body would hold writers
// (not readers) for its whole parse.
const maxIngestBody = 64 << 20

// errRejected is the admission controller's refusal: in-flight and queue
// slots are all taken.
var errRejected = errors.New("serve: server saturated, query rejected")

// errDraining refuses every request that arrives once Shutdown has begun.
var errDraining = errors.New("serve: server draining, request refused")

// Server is the HTTP query server. Create with New or NewWithRunner,
// start with Start, stop with Shutdown.
type Server struct {
	cfg    Config
	run    QueryFunc
	ingest IngestFunc // nil: no write path (test runner)
	m      *metrics

	sem      chan struct{} // admission semaphore, capacity MaxInFlight
	waiting  atomic.Int64  // queries blocked on sem
	draining atomic.Bool

	http *http.Server
	ln   net.Listener
}

// New builds a Server over a DB, wiring both the read path (QueryRows)
// and the write path (AppendCSV).
func New(db *swole.DB, cfg Config) *Server {
	s := NewWithRunner(db.QueryRows, cfg)
	s.ingest = db.AppendCSV
	return s
}

// NewWithRunner builds a Server over an arbitrary execution backend.
func NewWithRunner(run QueryFunc, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		run: run,
		m:   newMetrics(),
		sem: make(chan struct{}, cfg.MaxInFlight),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.http = &http.Server{Handler: s.recovered(mux)}
	return s
}

// recovered contains a fault at the handler boundary: a panic below it — in
// a backend, in the encoder running under a statement's entry lock — answers
// 500 and is counted. Whatever the handler held (admission slot, in-flight
// gauge, the entry lock) was released by defer on the way up, so the next
// request for the same statement runs.
func (s *Server) recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Add(1)
				writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprint("internal error: ", p), Outcome: outcomeError})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// Start binds the configured address and begins serving in a background
// goroutine. It returns once the listener is bound, so Addr is valid —
// tests bind ":0" and read the port back.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		// ErrServerClosed is the normal Shutdown result; anything else is
		// lost here, but Serve errors after a successful bind are rare and
		// the process-level caller (cmd/swoled) owns crash reporting.
		_ = s.http.Serve(ln)
	}()
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server: new queries are refused with 503, admitted
// queries get up to DrainTimeout to finish, then the listener closes. Safe
// to call multiple times.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	return s.http.Shutdown(dctx)
}

// admit acquires an execution slot, waiting in the bounded queue if the
// semaphore is full. On success the caller frees the slot with <-s.sem.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		return errRejected
	}
	s.m.queued.Add(1)
	defer func() {
		s.waiting.Add(-1)
		s.m.queued.Add(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admitted is the one door for requests that do work (/query, /explain,
// /ingest): refused with errDraining once Shutdown has begun, otherwise
// given its deadline and an admission slot, then counted in flight while
// work runs. work receives the deadline's context and how long admission
// waited; it runs only when admission succeeded.
func (s *Server) admitted(parent context.Context, timeoutMS int64, work func(ctx context.Context, wait time.Duration) error) error {
	if s.draining.Load() {
		return errDraining
	}
	ctx, cancel := s.deadline(parent, timeoutMS)
	defer cancel()
	waitStart := time.Now()
	if err := s.admit(ctx); err != nil {
		return err
	}
	defer func() { <-s.sem }()
	wait := time.Since(waitStart)
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)
	return work(ctx, wait)
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Query string `json:"query"`
	// TimeoutMS overrides the server's default per-query deadline;
	// negative, or past what a time.Duration holds, disables the deadline
	// for this query.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type errorResponse struct {
	Error   string `json:"error"`
	Outcome string `json:"outcome"`
}

// deadline derives the query's context from the request's.
func (s *Server) deadline(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	switch {
	case timeoutMS < 0 || timeoutMS > math.MaxInt64/int64(time.Millisecond):
		// Negative, or longer than a Duration holds: no deadline. Checked
		// before the multiply, which wraps past either end of a Duration.
		d = -1
	case timeoutMS != 0:
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d < 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// outcomeOf classifies a finished query for metrics and the HTTP status.
func outcomeOf(err error) (outcome string, status int) {
	switch {
	case err == nil:
		return outcomeOK, http.StatusOK
	case errors.Is(err, errRejected):
		return outcomeRejected, http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return outcomeRejected, http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return outcomeTimeout, http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; 499 is the de-facto (nginx) code for it. The
		// response is rarely observed but the metric label is.
		return outcomeCanceled, 499
	default:
		return outcomeError, http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// execute runs one statement through admission, deadline, and the backend,
// recording metrics; the backend presents its answer through rows. It
// returns the explain when one was produced and the classified outcome.
func (s *Server) execute(parent context.Context, q string, timeoutMS int64, rows func(cols []string, flat []int64, width int)) (*swole.Explain, string, int, error) {
	start := time.Now()
	var ex *swole.Explain
	err := s.admitted(parent, timeoutMS, func(ctx context.Context, wait time.Duration) error {
		s.m.observeWait(wait)
		e, err := s.run(ctx, q, rows)
		ex = &e
		return err
	})
	outcome, status := outcomeOf(err)
	shape := "unknown" // refused at the door
	if ex != nil {
		// Metrics aggregate under the bounded shape bucket, not the raw
		// synthesized signature: signatures grow with the statement (join
		// counts, OR widths, aggregate lists) and would make the shape
		// label's cardinality unbounded. /explain still reports the full
		// signature.
		shape = swole.ShapeBucket(ex.Shape)
	}
	s.m.observe(shape, outcome, time.Since(start), ex)
	return ex, outcome, status, err
}

// Response bodies are built in pooled buffers. One that grew past
// maxPooledBody is dropped rather than pinned: MaxInFlight unusually large
// answers would otherwise stay resident for the life of the process.
const maxPooledBody = 8 << 20

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func putBody(p *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*p = b[:0]
		bodyPool.Put(p)
	}
}

// appendAnswer appends a /query success body up to its explain member —
// {"columns":[…],"rows":[[…],…] — exactly as encoding/json renders it. It runs
// inside the backend's rows call and allocates nothing once b has grown.
func appendAnswer(b []byte, cols []string, flat []int64, width int) []byte {
	comma := []byte(",")
	b = append(b, `{"columns":[`...)
	for _, c := range cols {
		b = append(appendName(b, c), ',')
	}
	b = append(bytes.TrimSuffix(b, comma), `],"rows":[`...)
	row := 2 + 21*width // '[', each value's sign, ≤ 19 digits and comma, the closing ','
	for i := 0; width > 0 && i+width <= len(flat); i += width {
		n := len(b)
		b = slices.Grow(b, row)[:n+row]
		b[n] = '['
		n++
		for _, v := range flat[i : i+width] {
			n = putInt(b, n, v)
			b[n] = ','
			n++
		}
		b[n-1], b[n] = ']', ',' // the row's last comma closes it
		b = b[:n+1]
	}
	return append(bytes.TrimSuffix(b, comma), ']')
}

// quads[q] is q in 0…9999 as four ASCII digits, the first in the low byte.
var quads = func() (t [10000]uint32) {
	for q := range t {
		t[q] = uint32('0'+q/1000) | uint32('0'+q/100%10)<<8 | uint32('0'+q/10%10)<<16 | uint32('0'+q%10)<<24
	}
	return t
}()

// putInt writes v in decimal at b[n:], four digits per store, and returns the
// index past its last digit. b needs 20 bytes from n: a one-group number's
// store runs up to three bytes past its end, for the caller to overwrite.
func putInt(b []byte, n int, v int64) int {
	u := uint64(v)
	if v < 0 {
		b[n] = '-'
		n++
		u = -u // math.MinInt64 too: its magnitude 1<<63 is a uint64
	}
	var low [4]uint32 // the groups below the leading one, least significant first
	k := 0
	for ; u >= 10000; k++ {
		low[k] = quads[u%10000]
		u /= 10000
	}
	zeros := 0 // the leading group's zeros; 0 itself keeps one digit
	switch {
	case u < 10:
		zeros = 3
	case u < 100:
		zeros = 2
	case u < 1000:
		zeros = 1
	}
	binary.LittleEndian.PutUint32(b[n:], quads[u]>>(8*zeros))
	n += 4 - zeros
	for k > 0 {
		k--
		binary.LittleEndian.PutUint32(b[n:], low[k])
		n += 4
	}
	return n
}

// appendName appends a column name as a JSON string: plain ASCII quoted as it
// stands, anything encoding/json would escape or replace through it.
func appendName(b []byte, s string) []byte {
	if strings.ContainsFunc(s, func(r rune) bool { return r < 0x20 || r >= 0x7f || strings.ContainsRune(`"\\<>&`, r) }) {
		j, _ := json.Marshal(s) // a string always marshals
		return append(b, j...)
	}
	return append(append(append(b, '"'), s...), '"')
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error(), Outcome: outcomeError})
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty query", Outcome: outcomeError})
		return
	}
	p := bodyPool.Get().(*[]byte)
	body := (*p)[:0]
	defer func() { putBody(p, body) }()
	ex, outcome, status, err := s.execute(r.Context(), req.Query, req.TimeoutMS, func(cols []string, flat []int64, width int) {
		body = appendAnswer(body, cols, flat, width)
	})
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error(), Outcome: outcome})
		return
	}
	if len(body) == 0 { // the backend had nothing to present
		body = appendAnswer(body, nil, nil, 0)
	}
	exJSON, err := json.Marshal(ex)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "encoding explain: " + err.Error(), Outcome: outcomeError})
		return
	}
	body = append(append(append(body, `,"explain":`...), exJSON...), "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client that went away
}

// ingestResponse is the POST /ingest body in both directions of success:
// the append report, plus the refusing error under strict failure.
type ingestResponse struct {
	swole.IngestReport
	Error string `json:"error,omitempty"`
}

// handleIngest appends one CSV batch to the table named by the ?table
// parameter. The batch competes for the same admission slots as queries —
// an append holds the database's one writer lock (DB.writeMu) while it
// parses and registers the batch, so letting unbounded ingests pile up next
// to a bounded read fleet would defeat the admission controller. Malformed
// rows follow ?policy: "strict" (default) refuses the whole batch with the
// offending line, "skip" drops and attributes them.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "this server has no ingest backend", Outcome: outcomeError})
		return
	}
	table := strings.TrimSpace(r.URL.Query().Get("table"))
	if table == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing table parameter", Outcome: outcomeError})
		return
	}
	policy := swole.IngestStrict
	switch p := r.URL.Query().Get("policy"); p {
	case "", "strict":
	case "skip":
		policy = swole.IngestSkip
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "policy must be strict or skip, not " + p, Outcome: outcomeError})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error(), Outcome: outcomeError})
		return
	}

	start := time.Now()
	var rep swole.IngestReport
	err = s.admitted(r.Context(), 0, func(context.Context, time.Duration) error {
		var err error
		rep, err = s.ingest(table, body, policy)
		return err
	})
	outcome, status := outcomeOf(err)
	s.m.observeIngest(outcome, time.Since(start), rep.Accepted, rep.Rejected)
	resp := ingestResponse{IngestReport: rep}
	if err != nil {
		resp.Error = err.Error()
	}
	writeJSON(w, status, resp)
}

// handleExplain executes the q parameter (under the same admission and
// deadline regime as /query — explaining a statement plans and runs it)
// and returns only the Explain.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing q parameter", Outcome: outcomeError})
		return
	}
	ex, outcome, status, err := s.execute(r.Context(), q, 0, func([]string, []int64, int) {})
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error(), Outcome: outcome})
		return
	}
	writeJSON(w, status, ex)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	s.m.render(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
