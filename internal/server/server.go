// Package server is lawgated's hardened multi-tenant ruling service:
// the legal engine behind an HTTP/JSON API that is designed to degrade
// deliberately instead of falling over. Every request ends in an
// intentional status:
//
//   - per-tenant doctrine tables hot-swap via one atomic pointer store
//     (in-flight requests finish on the version they loaded);
//   - admission control bounds concurrent evaluation and the wait
//     queue, shedding overload as fast 429s with Retry-After;
//   - per-request deadlines propagate through context and expire as
//     504s, never as leaked goroutines;
//   - panics are converted to 500s and a counter, slow request bodies
//     to 408s, oversized bodies to 413s;
//   - SIGTERM drains: readiness flips first, in-flight work finishes,
//     each tenant ledger seals a final checkpoint, then the process
//     exits 0.
package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
)

// Defaults, overridable per Option.
const (
	DefaultDeadline        = 5 * time.Second
	DefaultBodyReadTimeout = 2 * time.Second
	DefaultMaxBody         = 1 << 20
	DefaultMaxWait         = 1024
	DefaultMaxBatch        = 4096
)

// EvalHook runs inside an admitted evaluation slot, before the engine
// is consulted. It is the test and chaos seam: a hook that blocks
// simulates slow evaluation (driving queueing, shedding, and deadline
// expiry), and a hook that panics proves the recovery middleware.
// Production servers leave it nil.
type EvalHook func(ctx context.Context, tenant string, a *legal.Action)

// Server is the lawgated HTTP service. Construct with New; serve via
// Handler (tests), Start/Serve (production), and stop with Shutdown.
type Server struct {
	reg  *Registry
	adm  *admission
	hook EvalHook
	now  func() time.Time
	mux  *http.ServeMux
	hs   *http.Server

	ready    atomic.Bool
	stats    serverStats
	finalCps []TenantCheckpoint

	tenants         []string
	slots           int
	maxWait         int
	rate, burst     float64
	deadline        time.Duration
	bodyReadTimeout time.Duration
	maxBody         int64
	maxBatch        int
	drainDelay      time.Duration
}

// serverStats are the service's monotonic counters; read them with
// Stats or GET /metricsz.
type serverStats struct {
	requests    atomic.Uint64
	ok          atomic.Uint64
	clientErr   atomic.Uint64
	rateLimited atomic.Uint64
	shed        atomic.Uint64
	expired     atomic.Uint64
	panics      atomic.Uint64
	rulings     atomic.Uint64
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Requests counts every request reaching a v1 handler.
	Requests uint64 `json:"requests"`
	// OK counts 2xx responses.
	OK uint64 `json:"ok"`
	// ClientErrors counts deliberate 4xx responses other than 429
	// (malformed, oversized, slow-body, unknown tenant, invalid action).
	ClientErrors uint64 `json:"clientErrors"`
	// RateLimited counts 429s from a tenant's token bucket.
	RateLimited uint64 `json:"rateLimited"`
	// Shed counts 429s from a full admission queue.
	Shed uint64 `json:"shed"`
	// DeadlineExpired counts 504s.
	DeadlineExpired uint64 `json:"deadlineExpired"`
	// Panics counts requests converted to 500 by the recovery
	// middleware — each one a request that would have crashed the
	// process.
	Panics uint64 `json:"panics"`
	// Rulings counts rulings served (batch slots included).
	Rulings uint64 `json:"rulings"`
	// QueueDepth is the current number of admission waiters.
	QueueDepth int64 `json:"queueDepth"`
	// Ready reports the readiness gate.
	Ready bool `json:"ready"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:        s.stats.requests.Load(),
		OK:              s.stats.ok.Load(),
		ClientErrors:    s.stats.clientErr.Load(),
		RateLimited:     s.stats.rateLimited.Load(),
		Shed:            s.stats.shed.Load(),
		DeadlineExpired: s.stats.expired.Load(),
		Panics:          s.stats.panics.Load(),
		Rulings:         s.stats.rulings.Load(),
		QueueDepth:      s.adm.queueDepth(),
		Ready:           s.ready.Load(),
	}
}

// TenantCheckpoint is one tenant's sealed final checkpoint, produced by
// the drain sequence.
type TenantCheckpoint struct {
	Tenant     string
	Checkpoint ledger.Checkpoint
	// Seq is the sequence number of the ServiceCheckpointSealed record
	// committing to the checkpoint.
	Seq uint64
}

// Option configures New.
type Option func(*Server)

// WithTenants provisions the named tenants at startup, each on the
// default doctrine table.
func WithTenants(ids ...string) Option {
	return func(s *Server) { s.tenants = ids }
}

// WithAdmission sizes the bounded work queue: slots concurrent
// evaluations (<= 0 selects one per CPU) and maxWait queued waiters
// before shedding.
func WithAdmission(slots, maxWait int) Option {
	return func(s *Server) { s.slots, s.maxWait = slots, maxWait }
}

// WithRateLimit sets each tenant's token bucket (rate tokens/second,
// burst capacity). rate <= 0 disables per-tenant limiting.
func WithRateLimit(rate, burst float64) Option {
	return func(s *Server) { s.rate, s.burst = rate, burst }
}

// WithDeadline sets the default (and maximum) per-request deadline.
// Clients may lower it per request with the X-Lawgate-Deadline-Ms
// header, never raise it.
func WithDeadline(d time.Duration) Option {
	return func(s *Server) { s.deadline = d }
}

// WithBodyReadTimeout bounds how long a client may take to deliver a
// request body; a slower client gets 408, not an open socket.
func WithBodyReadTimeout(d time.Duration) Option {
	return func(s *Server) { s.bodyReadTimeout = d }
}

// WithMaxBody caps request body bytes; larger bodies get 413.
func WithMaxBody(n int64) Option {
	return func(s *Server) { s.maxBody = n }
}

// WithMaxBatch caps the action count of one batch request.
func WithMaxBatch(n int) Option {
	return func(s *Server) { s.maxBatch = n }
}

// WithDrainDelay holds the server up (still serving, readiness already
// 503) for d before the listener stops accepting, giving load balancers
// time to route away.
func WithDrainDelay(d time.Duration) Option {
	return func(s *Server) { s.drainDelay = d }
}

// WithEvalHook installs the evaluation hook (see EvalHook).
func WithEvalHook(h EvalHook) Option {
	return func(s *Server) { s.hook = h }
}

// WithClock injects a clock for tests.
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// New builds the service, provisions its tenants, and compiles their
// engines; the returned server is ready (readiness 200) before any
// listener exists.
func New(opts ...Option) (*Server, error) {
	s := &Server{
		now:             time.Now,
		tenants:         []string{"default"},
		maxWait:         DefaultMaxWait,
		deadline:        DefaultDeadline,
		bodyReadTimeout: DefaultBodyReadTimeout,
		maxBody:         DefaultMaxBody,
		maxBatch:        DefaultMaxBatch,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.slots <= 0 {
		s.slots = runtime.GOMAXPROCS(0)
	}
	s.adm = newAdmission(s.slots, s.maxWait)
	s.reg = NewRegistry(s.rate, s.burst, s.now)
	for _, id := range s.tenants {
		if _, _, err := s.reg.Install(id, RuleConfig{}); err != nil {
			return nil, fmt.Errorf("server: provisioning tenant %q: %w", id, err)
		}
	}
	s.routes()
	// Built here, not in Serve: Shutdown may run concurrently with a
	// background Serve and must see a fully constructed http.Server.
	s.hs = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      s.deadline + s.bodyReadTimeout + 10*time.Second,
		IdleTimeout:       60 * time.Second,
	}
	s.ready.Store(true)
	return s, nil
}

// Registry exposes the tenant registry (the swap-linearizability tests
// and the bench harness drive it directly).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the fully wired HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// routes wires the endpoint table.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/evaluate", s.wrap(s.handleEvaluate))
	s.mux.HandleFunc("POST /v1/evaluate/batch", s.wrap(s.handleBatch))
	s.mux.HandleFunc("POST /v1/advise", s.wrap(s.handleAdvise))
	s.mux.HandleFunc("GET /v1/ledger/checkpoint", s.wrap(s.handleCheckpoint))
	s.mux.HandleFunc("PUT /v1/tenants/{id}/rules", s.wrap(s.handleInstallRules))
	s.mux.HandleFunc("GET /v1/tenants/{id}", s.wrap(s.handleTenantInfo))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
}

// apiError is a deliberate error response: status, message, optional
// Retry-After.
type apiError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

// wrap is the resilience middleware around every v1 handler: request
// counting, panic recovery (a poisoned request becomes a 500 and a
// counter, not a dead process), and uniform error rendering.
func (s *Server) wrap(h func(w http.ResponseWriter, r *http.Request) *apiError) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.stats.panics.Add(1)
				if !sw.wrote {
					s.writeErr(sw, &apiError{status: http.StatusInternalServerError,
						msg: fmt.Sprintf("internal error: %v", p)})
				}
			}
		}()
		if err := h(sw, r); err != nil {
			s.writeErr(sw, err)
			return
		}
		s.stats.ok.Add(1)
	}
}

// writeErr renders an apiError and bumps the matching counter.
func (s *Server) writeErr(w http.ResponseWriter, e *apiError) {
	switch {
	case e.status == http.StatusTooManyRequests:
		// Partitioned in the caller between shed and rate-limited.
	case e.status == http.StatusGatewayTimeout:
		s.stats.expired.Add(1)
	case e.status >= 400 && e.status < 500:
		s.stats.clientErr.Add(1)
	}
	if e.retryAfter > 0 {
		secs := int(e.retryAfter / time.Second)
		if e.retryAfter%time.Second != 0 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, e.status, map[string]string{"error": e.msg})
}

// statusWriter records whether a response has started, so the panic
// recovery path knows if a 500 can still be written. Unwrap lets
// http.ResponseController reach the underlying writer for read
// deadlines.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// writeJSON marshals v and writes it with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	if status != http.StatusNoContent {
		w.Write([]byte{'\n'})
	}
}

// readJSON reads and decodes a request body into an arbitrary value
// under the server's robustness caps (see readBody). The hot endpoints
// use the typed wire-codec readers in codec.go; this stdlib path
// remains for cold, schema-rich bodies like RuleConfig.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, into any) *apiError {
	sc := getScratch()
	defer putScratch(sc)
	body, aerr := s.readBody(w, r, sc.body)
	sc.body = body
	if aerr != nil {
		return aerr
	}
	// json.Decoder, not Unmarshal: the previous streaming reader took
	// the first JSON value and ignored trailing bytes, and the typed
	// wire decoders share that semantic.
	if err := json.NewDecoder(bytes.NewReader(sc.body)).Decode(into); err != nil {
		return &apiError{status: http.StatusBadRequest, msg: "malformed JSON: " + err.Error()}
	}
	return nil
}

// requestContext derives the per-request deadline context: the server
// default, lowered (never raised) by an X-Lawgate-Deadline-Ms header.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.deadline
	if h := r.Header.Get("X-Lawgate-Deadline-Ms"); h != "" {
		if ms, err := strconv.Atoi(h); err == nil && ms >= 0 {
			if hd := time.Duration(ms) * time.Millisecond; hd < d {
				d = hd
			}
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// Serve serves on l until Shutdown. It returns http.ErrServerClosed
// after a graceful shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	return s.hs.Serve(l)
}

// Start listens on addr and serves in the background, returning the
// bound address (useful with ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := s.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "lawgated: serve:", err)
		}
	}()
	return l.Addr(), nil
}

// Shutdown is the drain sequence: readiness flips to 503 first (load
// balancers stop routing while the listener still accepts), the drain
// delay elapses, the listener closes and every in-flight and queued
// request finishes within ctx, and each tenant ledger seals a final
// ServiceCheckpointSealed record committing to everything served. A nil
// return means a complete drain; the process may exit 0.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	if s.drainDelay > 0 {
		select {
		case <-time.After(s.drainDelay):
		case <-ctx.Done():
		}
	}
	if s.hs != nil {
		if err := s.hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("server: drain: %w", err)
		}
	}
	s.finalCps = s.sealFinalCheckpoints()
	return nil
}

// sealFinalCheckpoints appends one checkpoint record per tenant and
// returns the sealed commitments.
func (s *Server) sealFinalCheckpoints() []TenantCheckpoint {
	var out []TenantCheckpoint
	for _, id := range s.reg.Tenants() {
		t := s.reg.Get(id)
		// Drain the audit spool so the final checkpoint commits to every
		// request served before the listener closed.
		t.flushAudit()
		cp := t.led.Checkpoint()
		seq := t.led.Append(ledger.Draft{
			At:      s.now().UnixNano(),
			Kind:    ledger.KindService,
			Code:    ServiceCheckpointSealed,
			Actor:   "lawgated",
			Subject: id,
			Note: fmt.Sprintf("final checkpoint: size=%d root=%s",
				cp.Size, hex.EncodeToString(cp.Root[:])),
		})
		out = append(out, TenantCheckpoint{Tenant: id, Checkpoint: cp, Seq: seq})
	}
	return out
}

// FinalCheckpoints returns the checkpoints sealed by Shutdown (nil
// before a drain).
func (s *Server) FinalCheckpoints() []TenantCheckpoint { return s.finalCps }
