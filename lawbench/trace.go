package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
)

// reqIDKey carries a traced request's id from the handler wrapper to
// the eval hook through the request context.
type reqIDKey struct{}

// span is the server side of one traced request: the moment its first
// bytes were read off the connection, handler entry, the eval hook (0
// when the request never reached an evaluation slot), handler exit, the
// start of the connection's last write of the reply and the status
// written.
type span struct {
	read, start, hook, end int64
	wrote                  atomic.Int64
	status                 int32
}

// tracer collects a traced server's spans and counters. Spans are kept
// in memory, indexed by request id, and written out after the run.
type tracer struct {
	clk      clock
	book     *book
	accepted atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	queueMax int64

	// Live counters as served, decoded loosely so the benchmark keeps
	// building when a counter is added or retired.
	metricsz map[string]any
	tenant   map[string]any
}

// num reads a numeric JSON field, 0 when absent.
func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// tracedHandler wraps Server.Handler(): it stamps handler entry and
// exit and puts the request id into the context the eval hook sees.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := h.tr.clk.now()
	c, _ := r.Context().Value(connKey{}).(*countingConn)
	id, err := strconv.ParseInt(r.Header.Get("X-Bench-Id"), 10, 32)
	if err != nil || !h.tr.book.reserved(int(id)) {
		if c != nil {
			c.cur.Store(nil)
		}
		h.next.ServeHTTP(w, r)
		return
	}
	sp := h.tr.book.span(int(id))
	sp.start = now
	if c != nil {
		sp.read = c.arrived.Load()
		c.cur.Store(sp)
	}
	sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, int(id))))
	sp.end = h.tr.clk.now()
	sp.status = int32(sw.status)
}

// statusRecorder records the status a handler writes. Unwrap keeps
// http.ResponseController (the server's body-read deadline) working.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countingListener is the wrapped net.Listener the traced server is
// served on: it counts accepted connections and the bytes they carry,
// and times when each request arrives and its reply leaves. With
// HTTP/1.1 a connection carries one request at a time, so the first
// bytes read after a write belong to the next request, and every write
// until then to the reply of the request the handler last stamped.
type countingListener struct {
	net.Listener
	tr *tracer
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.tr.accepted.Add(1)
	cc := &countingConn{Conn: c, tr: l.tr}
	cc.fresh.Store(true)
	return cc, nil
}

// connKey carries the serving connection into the handler's context
// (http.Server.ConnContext).
type connKey struct{}

func withConn(ctx context.Context, c net.Conn) context.Context {
	return context.WithValue(ctx, connKey{}, c)
}

type countingConn struct {
	net.Conn
	tr *tracer
	// fresh is set by a write and cleared by the next read, which sets
	// arrived. net/http may read from a background goroutine, hence the
	// atomics.
	fresh   atomic.Bool
	arrived atomic.Int64
	cur     atomic.Pointer[span]
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.fresh.Swap(false) {
		c.arrived.Store(c.tr.clk.now())
	}
	c.tr.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	// Stamped before the write: the client may read the reply before
	// the write returns.
	if sp := c.cur.Load(); sp != nil {
		sp.wrote.Store(c.tr.clk.now())
	}
	c.fresh.Store(true)
	n, err := c.Conn.Write(b)
	c.tr.bytesOut.Add(int64(n))
	return n, err
}

// readLive reads the server's live counters: GET /metricsz and
// GET /v1/tenants/default.
func (tr *tracer) readLive(c *conn) error {
	get := func(path string, into any) error {
		c.hdr = c.hdr[:0]
		status, err := c.roundTrip("GET", path, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, status)
		}
		return json.Unmarshal(c.resp, into)
	}
	if err := get("/metricsz", &tr.metricsz); err != nil {
		return err
	}
	return get("/v1/tenants/default", &tr.tenant)
}

// spanLine is one request in the span file. Every span of a request
// shares its id; times are nanoseconds on the run's clock.
type spanLine struct {
	ID     int    `json:"id"`
	Op     string `json:"op"`
	Status int32  `json:"status"`
	// Client spans: generator (intended -> sent), connection wait
	// (sent -> picked), round trip (picked -> done).
	Intended int64 `json:"intended"`
	Sent     int64 `json:"sent"`
	Picked   int64 `json:"picked"`
	Done     int64 `json:"done"`
	// Server spans: connection (read -> wrote) around the handler
	// (start -> end), split at the eval hook into pre-eval
	// (start -> hook) and post-eval (hook -> end).
	ConnRead     int64 `json:"conn_read,omitempty"`
	HandlerStart int64 `json:"handler_start,omitempty"`
	EvalHook     int64 `json:"eval_hook,omitempty"`
	HandlerEnd   int64 `json:"handler_end,omitempty"`
	ConnWrote    int64 `json:"conn_wrote,omitempty"`
}

// writeSpans writes the traced server's requests, one JSON line each.
func (s *servingRun) writeSpans(inst *instance) error {
	path := spanPath(s.cfg)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rg := range inst.ranges() {
		for i := rg[0]; i < rg[1]; i++ {
			r, sp := s.t.book.rec(i), s.t.book.span(i)
			line := spanLine{ID: i, Op: opNames[r.d.op], Status: r.status,
				Intended: r.intended, Sent: r.sent, Picked: r.picked, Done: r.done,
				ConnRead: sp.read, HandlerStart: sp.start, EvalHook: sp.hook, HandlerEnd: sp.end,
				ConnWrote: sp.wrote.Load()}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
