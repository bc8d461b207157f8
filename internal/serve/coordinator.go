package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	swole "github.com/reprolab/swole"
)

// The scatter-gather coordinator (DESIGN.md §12): a Server whose backend
// fans each statement out to N shard processes — each an ordinary swoled
// serving one row-range of the data — over the same HTTP/JSON protocol
// clients speak, and merges the partial answers. Group-shape partials
// merge by key (each shard returns its groups sorted; the coordinator
// folds them into one ascending-key result), scalar shapes by summation.
//
// Partial-failure semantics: the merged answer is only correct if every
// shard contributed, so any shard failure — a 429 from a saturated
// shard, a timeout, a transport error — fails the whole query. The
// error names the first failing shard, and the Explain's ShardErrors
// attributes every shard's failure for the client (the /query error
// body carries it).
//
// Admission is layered: the coordinator's own Config bounds admitted
// queries like any Server, and a per-shard in-flight bound (PerShard)
// additionally caps how many outstanding requests the coordinator keeps
// at each shard, so one slow shard back-pressures the coordinator
// instead of accumulating requests.

// CoordinatorConfig parameterizes NewCoordinator.
type CoordinatorConfig struct {
	// Config is the coordinator's own serving configuration (listen
	// address, admission bounds, default deadline).
	Config
	// Shards lists the shard processes' base addresses (host:port).
	Shards []string
	// PerShard bounds outstanding requests per shard; default 4.
	PerShard int
}

// coordinator is the scatter-gather backend behind a coordinator Server.
type coordinator struct {
	shards []string
	sems   []chan struct{}
	client *http.Client
	m      *metrics
}

// NewCoordinator builds a Server that scatter-gathers every query across
// the configured shard processes.
func NewCoordinator(cfg CoordinatorConfig) (*Server, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("serve: coordinator needs at least one shard address")
	}
	perShard := cfg.PerShard
	if perShard <= 0 {
		perShard = 4
	}
	c := &coordinator{
		shards: cfg.Shards,
		sems:   make([]chan struct{}, len(cfg.Shards)),
		client: &http.Client{},
	}
	for i := range c.sems {
		c.sems[i] = make(chan struct{}, perShard)
	}
	s := NewWithRunner(c.run, cfg.Config)
	c.m = s.m
	return s, nil
}

// distributiveShape reports whether a synthesized plan signature's
// per-shard partials merge correctly by the coordinator's summation
// merge: scalar sums/counts and (key, sum) group rows do; HAVING (a
// filter over finalized rows), avg/min/max (whose finalized values are
// not additive), and multi-aggregate rows (whose signatures carry a ":K"
// count after the aggregate class) do not.
func distributiveShape(sig string) bool {
	for _, marker := range []string{"having", "avg", "min", "max", "scalaragg:", "groupagg:"} {
		if strings.Contains(sig, marker) {
			return false
		}
	}
	return true
}

// queryResponse decodes a shard's /query success body (appendAnswer writes
// it).
type queryResponse struct {
	Columns []string       `json:"columns"`
	Rows    [][]int64      `json:"rows"`
	Explain *swole.Explain `json:"explain,omitempty"`
}

// shardAnswer is one shard's contribution to a scatter-gather.
type shardAnswer struct {
	resp queryResponse
	took time.Duration
	err  error
}

// run is the coordinator's QueryFunc: scatter, gather, merge.
func (c *coordinator) run(ctx context.Context, q string, rows func(cols []string, flat []int64, width int)) (swole.Explain, error) {
	n := len(c.shards)
	answers := make([]shardAnswer, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			start := time.Now()
			answers[i].resp, answers[i].err = c.queryShard(ctx, i, q)
			answers[i].took = time.Since(start)
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	var ex swole.Explain
	ex.ShardCount = n
	ex.ShardTimes = make([]time.Duration, n)
	var firstErr error
	for i := range answers {
		ex.ShardTimes[i] = answers[i].took
		if err := answers[i].err; err != nil {
			ex.ShardErrors = append(ex.ShardErrors, fmt.Sprintf("shard %d (%s): %v", i, c.shards[i], err))
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d (%s): %w", i, c.shards[i], err)
			}
		}
	}
	if firstErr != nil {
		return ex, firstErr
	}
	// The shards agree on the statement's shape; take shard 0's Explain
	// as the representative planning record.
	if e := answers[0].resp.Explain; e != nil {
		shardEx := *e
		shardEx.ShardCount = ex.ShardCount
		shardEx.ShardTimes = ex.ShardTimes
		ex = shardEx
	}
	if ex.Shape == "interpreter-fallback" {
		return ex, fmt.Errorf("serve: statement falls outside the SWOLE shapes and cannot be scatter-gathered (shape %q)", ex.Shape)
	}
	if !distributiveShape(ex.Shape) {
		return ex, fmt.Errorf("serve: shape %q is not distributive over shard partials and cannot be scatter-gathered", ex.Shape)
	}
	cols := answers[0].resp.Columns
	mergeStart := time.Now()
	var flat []int64
	switch len(cols) {
	case 1: // scalar: one row, one value per shard; the merge is a sum
		total := int64(0)
		for i := range answers {
			for _, row := range answers[i].resp.Rows {
				if len(row) != 1 {
					return ex, fmt.Errorf("shard %d (%s): malformed scalar row", i, c.shards[i])
				}
				total += row[0]
			}
		}
		flat = []int64{total}
	case 2: // grouped: (key, sum) rows; merge by key
		groups := map[int64]int64{}
		for i := range answers {
			for _, row := range answers[i].resp.Rows {
				if len(row) != 2 {
					return ex, fmt.Errorf("shard %d (%s): malformed group row", i, c.shards[i])
				}
				groups[row[0]] += row[1]
			}
		}
		keys := make([]int64, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		flat = make([]int64, 0, 2*len(keys))
		for _, k := range keys {
			flat = append(flat, k, groups[k])
		}
	default:
		return ex, fmt.Errorf("serve: cannot merge %d-column results", len(cols))
	}
	ex.ShardMergeTime = time.Since(mergeStart)
	rows(cols, flat, len(cols))
	return ex, nil
}

// queryShard sends the statement to one shard under its in-flight bound,
// forwarding the coordinator's remaining deadline as the shard's
// timeout_ms so a shard never outlives the query it serves.
func (c *coordinator) queryShard(ctx context.Context, i int, q string) (queryResponse, error) {
	var out queryResponse
	select {
	case c.sems[i] <- struct{}{}:
		defer func() { <-c.sems[i] }()
	case <-ctx.Done():
		return out, ctx.Err()
	}
	c.m.observeShard(i)
	req := queryRequest{Query: q, TimeoutMS: -1}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMS = ms
	}
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+c.shards[i]+"/query", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.client.Do(hreq)
	if err != nil {
		// Surface the local deadline as such so the outcome classifies as
		// a timeout rather than a generic transport error.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return out, ctxErr
		}
		return out, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		var eresp errorResponse
		msg := ""
		if json.NewDecoder(io.LimitReader(hresp.Body, 1<<16)).Decode(&eresp) == nil && eresp.Error != "" {
			msg = ": " + eresp.Error
		}
		if hresp.StatusCode == http.StatusTooManyRequests {
			return out, fmt.Errorf("rejected (HTTP 429%s)", msg)
		}
		if hresp.StatusCode == http.StatusGatewayTimeout {
			// The shard's deadline (the forwarded remainder of ours) fired
			// before our own context did; classify as the timeout it is so
			// the coordinator's outcome and status match the cause.
			return out, fmt.Errorf("HTTP %d%s: %w", hresp.StatusCode, msg, context.DeadlineExceeded)
		}
		return out, fmt.Errorf("HTTP %d%s", hresp.StatusCode, msg)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("bad response body: %w", err)
	}
	return out, nil
}
