package main

import (
	"bytes"
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// Tracing records spans at three boundaries, all from the benchmark's own
// files: the client (around each Retryer.Call, with a RoundTripper that
// tags the HTTP request and captures its bytes), the server (a handler
// wrapped around the CAS's http.Handler), and the SQL driver (a
// database/sql connector wrapping the engine's driver, plus the engine's
// SetStatsHook for row counts). Spans stay in memory and are written out
// when the run ends.

type spanKind uint8

const (
	spanClient spanKind = iota
	spanServer
	spanCycle // an in-process ScheduleCycle
	spanStmt
	spanCommit
)

var spanKindNames = [...]string{"client", "server", "cycle", "stmt", "commit"}

// span is one timed interval. Spans of one operation share req; parent
// is the enclosing span's id (0 for a client span).
type span struct {
	id, parent, req uint64
	kind            spanKind
	act             action
	write           bool  // a writing statement, or the commit of a writing transaction
	start, end      int64 // ns since the tracer's base
	rows, affected  int64 // statement: rows examined and affected
	reqBytes        int64 // client: request bytes
	respBytes       int64 // client: response bytes
}

// opTag travels in a context: which operation a call belongs to and the
// span enclosing it.
type opTag struct {
	req    uint64
	act    action
	parent uint64
	// Client-call scratch, filled by the transport.
	wireAction          string
	reqBytes, respBytes int64
}

type tagKey struct{}

func tagOf(ctx context.Context) *opTag {
	t, _ := ctx.Value(tagKey{}).(*opTag)
	return t
}

const opHeader = "X-Lifebench-Op"

// captured is one wire exchange's bytes, kept for the codec replay.
type captured struct {
	action    string
	req, resp []byte
}

const capturePerAct = 48

type tracer struct {
	on   atomic.Bool // recording (traced rounds only)
	base time.Time
	ids  atomic.Uint64

	mu       sync.Mutex
	spans    []span
	captures [numActs][]captured

	// events holds SetStatsHook reports of the current traced round,
	// in emission order.
	evMu   sync.Mutex
	events []stmtEvent

	cleanup []func()
}

func newTracer() *tracer {
	return &tracer{base: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp tags an operation's context while recording is on.
func (t *tracer) beginOp(ctx context.Context, act action) context.Context {
	if !t.on.Load() {
		return ctx
	}
	return context.WithValue(ctx, tagKey{}, &opTag{req: t.ids.Add(1), act: act})
}

// clientCall issues a wire call inside a client span.
func (t *tracer) clientCall(ctx context.Context, r *wire.Retryer, action string, req, resp any) error {
	op := tagOf(ctx)
	if op == nil {
		return r.Call(ctx, action, req, resp)
	}
	call := &opTag{req: op.req, act: op.act, parent: t.ids.Add(1), wireAction: action}
	start := t.now()
	err := r.Call(context.WithValue(ctx, tagKey{}, call), action, req, resp)
	t.record(span{id: call.parent, req: op.req, kind: spanClient, act: op.act, start: start, end: t.now(),
		reqBytes: call.reqBytes, respBytes: call.respBytes})
	return err
}

// cycle runs an in-process ScheduleCycle inside a cycle span.
func (t *tracer) cycle(ctx context.Context, fn func(context.Context) error) error {
	op := tagOf(ctx)
	if op == nil {
		return fn(ctx)
	}
	id := t.ids.Add(1)
	start := t.now()
	err := fn(context.WithValue(ctx, tagKey{}, &opTag{req: op.req, act: op.act, parent: id}))
	t.record(span{id: id, req: op.req, kind: spanCycle, act: op.act, start: start, end: t.now()})
	return err
}

// tracedTransport tags each request with its operation and keeps a copy
// of the first exchanges per action for the codec replay.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tag := tagOf(r.Context())
	if tag == nil || r.GetBody == nil {
		return tt.inner.RoundTrip(r)
	}
	body, err := r.GetBody()
	if err != nil {
		return nil, err
	}
	reqData, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	r2 := r.Clone(r.Context())
	r2.Header.Set(opHeader, fmt.Sprintf("%d/%d/%d", tag.req, tag.act, tag.parent))
	resp, err := tt.inner.RoundTrip(r2)
	if err != nil {
		return resp, err
	}
	respData, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(respData))
	tag.reqBytes += int64(len(reqData))
	tag.respBytes += int64(len(respData))
	tt.t.mu.Lock()
	if c := &tt.t.captures[tag.act]; len(*c) < capturePerAct {
		*c = append(*c, captured{action: tag.wireAction, req: reqData, resp: respData})
	}
	tt.t.mu.Unlock()
	return resp, nil
}

// tracedHandler records a server span around the CAS's handler and puts
// the operation's tag on the request context, from where core's
// transactions carry it to the SQL driver.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(r.Header.Get(opHeader), "/")
	if len(parts) != 3 {
		h.inner.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseUint(parts[0], 10, 64)
	act, _ := strconv.Atoi(parts[1])
	parent, _ := strconv.ParseUint(parts[2], 10, 64)
	id := h.t.ids.Add(1)
	ctx := context.WithValue(r.Context(), tagKey{}, &opTag{req: req, act: action(act), parent: id})
	start := h.t.now()
	h.inner.ServeHTTP(w, r.WithContext(ctx))
	h.t.record(span{id: id, parent: parent, req: req, kind: spanServer, act: action(act), start: start, end: h.t.now()})
}

// attach re-plumbs an assembled CAS onto a traced database/sql pool: the
// engine is served under a second DSN, opened through the tracing
// connector, and the service and web services mux are rebuilt over it
// exactly as core.New builds them. The untraced runs never do this.
func (t *tracer) attach(cas *core.CAS) {
	dsn := fmt.Sprintf("lifebench-trace-%d", t.ids.Add(1))
	sqldb.Serve(dsn, cas.Engine)
	pool := sql.OpenDB(&tracedConnector{dsn: dsn, t: t})
	pool.SetMaxOpenConns(8)
	pool.SetMaxIdleConns(8)
	cas.Service = core.NewService(pool, nil)
	cas.Mux = core.NewMux(cas.Service)
	cas.Engine.SetStatsHook(t.onStmt)
	t.cleanup = append(t.cleanup, func() {
		pool.Close()
		sqldb.Unserve(dsn)
	})
}

func (t *tracer) detach() {
	for _, f := range t.cleanup {
		f()
	}
	t.cleanup = nil
}

// stmtEvent is one SetStatsHook report.
type stmtEvent struct {
	at             int64
	kind           string
	rows, affected int64
	claimed        bool
}

// onStmt is the engine's stats hook. The engine calls it on the
// statement's own goroutine just before the statement returns, so a
// statement span claims the latest unclaimed report of its kind emitted
// inside its interval.
func (t *tracer) onStmt(s sqldb.StmtStats) {
	if !t.on.Load() {
		return
	}
	ev := stmtEvent{at: t.now(), kind: s.Kind, rows: int64(s.RowsScanned), affected: int64(s.RowsAffected)}
	t.evMu.Lock()
	t.events = append(t.events, ev)
	t.evMu.Unlock()
}

func (t *tracer) claim(kind string, start int64) (rows, affected int64) {
	t.evMu.Lock()
	defer t.evMu.Unlock()
	for i := len(t.events) - 1; i >= 0 && t.events[i].at >= start; i-- {
		if ev := &t.events[i]; !ev.claimed && ev.kind == kind {
			ev.claimed = true
			return ev.rows, ev.affected
		}
	}
	return 0, 0
}

// endRound drops the round's hook reports; no statement is in flight
// between rounds.
func (t *tracer) endRound() {
	t.evMu.Lock()
	t.events = t.events[:0]
	t.evMu.Unlock()
}

type tracedConnector struct {
	dsn string
	t   *tracer
}

func (c *tracedConnector) Connect(context.Context) (driver.Conn, error) {
	inner, err := sqldb.Driver{}.Open(c.dsn)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: inner, t: c.t}, nil
}

func (c *tracedConnector) Driver() driver.Driver { return sqldb.Driver{} }

// tracedConn times statements and commits at the driver boundary. A
// transaction's statements run under a context without the tag (database
// /sql hands Tx.Query a background context), so the tag seen at BeginTx
// is kept on the connection until the transaction ends.
type tracedConn struct {
	inner driver.Conn
	t     *tracer
	cur   *opTag
	wrote bool
}

func (c *tracedConn) Prepare(q string) (driver.Stmt, error) { return c.inner.Prepare(q) }
func (c *tracedConn) Close() error                          { return c.inner.Close() }
func (c *tracedConn) Begin() (driver.Tx, error) {
	return c.BeginTx(context.Background(), driver.TxOptions{})
}

func (c *tracedConn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	tx, err := c.inner.(driver.ConnBeginTx).BeginTx(ctx, opts)
	if err != nil {
		return nil, err
	}
	c.cur, c.wrote = tagOf(ctx), false
	return &tracedTx{inner: tx, c: c}, nil
}

func (c *tracedConn) IsValid() bool { return c.inner.(driver.Validator).IsValid() }

func (c *tracedConn) CheckNamedValue(nv *driver.NamedValue) error {
	return c.inner.(driver.NamedValueChecker).CheckNamedValue(nv)
}

func (c *tracedConn) ExecContext(ctx context.Context, q string, args []driver.NamedValue) (res driver.Result, err error) {
	c.timeStmt(ctx, q, func() { res, err = c.inner.(driver.ExecerContext).ExecContext(ctx, q, args) })
	return res, err
}

func (c *tracedConn) QueryContext(ctx context.Context, q string, args []driver.NamedValue) (rows driver.Rows, err error) {
	c.timeStmt(ctx, q, func() { rows, err = c.inner.(driver.QueryerContext).QueryContext(ctx, q, args) })
	return rows, err
}

func (c *tracedConn) timeStmt(ctx context.Context, q string, run func()) {
	tag := tagOf(ctx)
	if tag == nil {
		tag = c.cur
	}
	t := c.t
	if tag == nil || !t.on.Load() {
		run()
		return
	}
	start := t.now()
	run()
	end := t.now()
	verb := strings.ToUpper(strings.Fields(q + " x")[0])
	rows, affected := t.claim(verb, start)
	write := verb != "SELECT" && verb != "EXPLAIN"
	c.wrote = c.wrote || write
	t.record(span{id: t.ids.Add(1), parent: tag.parent, req: tag.req, kind: spanStmt, act: tag.act, write: write,
		start: start, end: end, rows: rows, affected: affected})
}

type tracedTx struct {
	inner driver.Tx
	c     *tracedConn
}

func (tx *tracedTx) Commit() error {
	c := tx.c
	tag := c.cur
	c.cur = nil
	if tag == nil || !c.t.on.Load() {
		return tx.inner.Commit()
	}
	start := c.t.now()
	err := tx.inner.Commit()
	c.t.record(span{id: c.t.ids.Add(1), parent: tag.parent, req: tag.req, kind: spanCommit, act: tag.act,
		write: c.wrote, start: start, end: c.t.now()})
	return err
}

func (tx *tracedTx) Rollback() error {
	tx.c.cur = nil
	return tx.inner.Rollback()
}

// dump writes every span as one CSV line.
func (t *tracer) dump(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	buf.WriteString("id,parent,req,name,action,start_ns,end_ns,rows,affected,req_bytes,resp_bytes\n")
	for _, s := range t.spans {
		fmt.Fprintf(&buf, "%d,%d,%d,%s,%s,%d,%d,%d,%d,%d,%d\n", s.id, s.parent, s.req, spanKindNames[s.kind], s.act,
			s.start, s.end, s.rows, s.affected, s.reqBytes, s.respBytes)
	}
	_, err := w.Write(buf.Bytes())
	return err
}
