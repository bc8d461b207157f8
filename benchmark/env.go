package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	swole "github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/serve"
)

// digestMaxRows caps the results whose rows are digested on every
// execution; larger ones are digested only where a caller asks for the
// full answer (cold executions and verification), and checked by row
// count elsewhere, so that checking stays cheap next to the timed call.
const digestMaxRows = 4096

// env is one set-up of a workload: the database, and for serve_mixed the
// loopback server and the single closed-loop connection to it.
type env struct {
	w      *workload
	db     *swole.DB
	srv    *serve.Server
	client *http.Client
	base   string
	body   bytes.Buffer // response buffer, reused

	// rowsInR is the row count of r, accepted appends included, and state
	// names the table state expected answers are keyed by: "init" until
	// the first append, "rows=N" after it.
	rowsInR int
	state   string
}

// obs is what the harness observed of one query.
type obs struct {
	dur      time.Duration
	rows     int // -1 when the response was not decoded
	ans      answer
	hasAns   bool
	value    int64 // first value of the first row, when decoded
	ex       swole.Explain
	hasEx    bool
	fallback bool
}

func newEnv(w *workload, db *swole.DB) *env {
	return &env{w: w, db: db, rowsInR: w.rows, state: "init"}
}

// startServer puts the database behind a serve.Server on a free loopback
// port and opens the one connection the closed loop uses.
func (e *env) startServer() error {
	e.srv = serve.New(e.db, serve.Config{Addr: "127.0.0.1:0"})
	if err := e.srv.Start(); err != nil {
		return err
	}
	e.base = "http://" + e.srv.Addr()
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	return nil
}

func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx)
		cancel()
		e.client.CloseIdleConnections()
		e.srv = nil
	}
	if e.db != nil {
		e.db.Close()
		e.db = nil
	}
}

// query executes s once, through HTTP when the environment serves and
// in-process otherwise, timing only the call. full asks for the decoded
// answer whatever its size.
func (e *env) query(s *stmt, full bool) (obs, error) {
	if e.w.http {
		return e.queryHTTP(e.client, &e.body, s, full)
	}
	return e.queryLocal(s, full)
}

// queryLocal executes s through DB.QuerySwole.
func (e *env) queryLocal(s *stmt, full bool) (obs, error) {
	t0 := time.Now()
	res, ex, err := e.db.QuerySwole(s.sql)
	o := obs{dur: time.Since(t0), ex: ex, hasEx: true, rows: -1}
	if err != nil {
		return o, err
	}
	o.fallback = ex.Shape == "interpreter-fallback"
	o.rows = res.NumRows()
	if full || o.rows <= digestMaxRows {
		o.fill(res.Rows())
	}
	return o, nil
}

func (o *obs) fill(rows [][]int64) {
	o.rows = len(rows)
	o.ans, o.hasAns = digestRows(rows), true
	if len(rows) > 0 && len(rows[0]) > 0 {
		o.value = rows[0][0]
	}
}

type queryResponse struct {
	Rows    [][]int64      `json:"rows"`
	Explain *swole.Explain `json:"explain"`
}

var fallbackMark = []byte(`"Shape":"interpreter-fallback"`)

// queryHTTP posts s to /query and times the round trip up to the last
// byte of the body. Decoding happens after the clock stops: always for
// small bodies and when full is set, otherwise the body is only scanned
// for the fallback marker.
func (e *env) queryHTTP(c *http.Client, buf *bytes.Buffer, s *stmt, full bool) (obs, error) {
	if s.request == nil {
		s.request, _ = json.Marshal(map[string]string{"query": s.sql})
	}
	o := obs{rows: -1}
	t0 := time.Now()
	resp, err := c.Post(e.base+"/query", "application/json", bytes.NewReader(s.request))
	if err != nil {
		o.dur = time.Since(t0)
		return o, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	o.dur = time.Since(t0)
	if err != nil {
		return o, err
	}
	if resp.StatusCode != http.StatusOK {
		return o, fmt.Errorf("POST /query: %s: %.200s", resp.Status, buf.Bytes())
	}
	o.fallback = bytes.Contains(buf.Bytes(), fallbackMark)
	if full || buf.Len() <= 64<<10 {
		var qr queryResponse
		if err := json.Unmarshal(buf.Bytes(), &qr); err != nil {
			return o, err
		}
		o.fill(qr.Rows)
		if qr.Explain != nil {
			o.ex, o.hasEx = *qr.Explain, true
		}
	}
	return o, nil
}

// ingest appends one CSV batch to the fact table, over HTTP or
// in-process, and returns the call's duration and the rows accepted.
func (e *env) ingest(csv []byte, viaHTTP bool) (time.Duration, int, error) {
	var rep swole.IngestReport
	var err error
	t0 := time.Now()
	if !viaHTTP {
		rep, err = e.db.AppendCSV(e.w.cols.fact, csv, swole.IngestStrict)
	} else {
		var resp *http.Response
		resp, err = e.client.Post(e.base+"/ingest?table="+e.w.cols.fact, "text/csv", bytes.NewReader(csv))
		if err == nil {
			e.body.Reset()
			_, err = io.Copy(&e.body, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("POST /ingest: %s: %.200s", resp.Status, e.body.Bytes())
			}
		}
	}
	d := time.Since(t0)
	if err == nil && viaHTTP {
		err = json.Unmarshal(e.body.Bytes(), &rep)
	}
	if err != nil {
		return d, 0, err
	}
	e.rowsInR += rep.Accepted
	e.state = fmt.Sprintf("rows=%d", e.rowsInR)
	return d, rep.Accepted, nil
}
