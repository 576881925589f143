// Package httpapi is the HTTP front door shared by a nodb node
// (internal/server) and a cluster coordinator (internal/cluster), so a
// client cannot tell the two apart. It owns everything around a query's
// rows: request ids and panic recovery, the error envelope, request
// decoding, tenant resolution and weighted admission, per-query timeouts,
// the buffered and NDJSON query writers, and the health probes.
//
// A Backend supplies only what differs between a node and a coordinator:
// how a query runs, and the bodies of the explain, tables, schema, stats
// and readiness endpoints. Extra routes mount through Front.Handle and
// get the same wrapper.
//
// Endpoints:
//
//	POST /v1/query         {"query": "...", "timeout_ms": 0}  -> columns, rows, stats
//	GET  /v1/query?q=...&timeout_ms=...                       -> same
//	POST /v1/query/stream  (same request shape)               -> NDJSON row stream
//	POST /v1/explain       (same request shape, or GET ?q=)   -> {"plan": "..."}
//	GET  /v1/tables                                           -> backend's table listing
//	GET  /v1/schema?table=name                                -> backend's schema body
//	GET  /v1/stats                                            -> backend's stats body
//	GET  /healthz, /readyz                                    -> probes (unversioned)
//
// Every response echoes the request's X-Request-Id header (generating one
// when absent), and every non-200 body is the envelope
// {"error":{"code":"...","message":"..."}}. Requests carry an X-API-Key
// header; with a tenant registry configured the key selects the tenant
// whose admission slots the query runs under, and an unknown key is
// rejected with 401 before the body is read (or mapped to the default
// tenant, per the registry's policy).
package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"nodb/internal/errs"
	"nodb/internal/qos"
	"nodb/internal/storage"
)

// Config configures a Front.
type Config struct {
	// MaxInFlight caps concurrently executing queries; further requests
	// are rejected with 429 until a slot frees (default 64).
	MaxInFlight int
	// DefaultTimeout bounds each query when the request does not set its
	// own (0 = none); MaxTimeout caps what a request may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps request body size (default 1 MiB).
	MaxBodyBytes int64
	// Tenants maps API keys to tenants and splits MaxInFlight into
	// per-tenant slots by weight. nil serves everyone as the default
	// tenant with the shared slot pool.
	Tenants *qos.Registry
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 64
	}
	return c.MaxInFlight
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return 1 << 20
	}
	return c.MaxBodyBytes
}

// Backend is what a node or a coordinator plugs into the front door.
// Every function is required. Errors carry their HTTP status through
// Status.
type Backend struct {
	// Query runs a query to completion for /v1/query.
	Query func(ctx context.Context, query string) (Result, error)
	// QueryStream opens a row cursor for /v1/query/stream.
	QueryStream func(ctx context.Context, query string) (Rows, error)
	// Explain renders a query's plan without running it.
	Explain func(ctx context.Context, query string) (string, error)
	// Tables and Schema return the /v1/tables and /v1/schema bodies.
	Tables func(ctx context.Context) (any, error)
	Schema func(ctx context.Context, table string) (any, error)
	// Stats returns the /v1/stats body around the front door's own
	// admission accounting.
	Stats func(Admission) any
	// Health returns the /healthz body (always 200: the process serves).
	Health func() any
	// Ready returns the /readyz status and body.
	Ready func(ctx context.Context) (status int, body any)
}

// Result is a query's buffered answer. Stats is rendered verbatim as the
// response's "stats" object.
type Result struct {
	Columns []string
	Rows    [][]storage.Value
	Stats   any
}

// Rows is an open result cursor. Stats is consulted once, after Next has
// returned false with a nil Err, for the stream's trailer line.
type Rows interface {
	Columns() []string
	Next() bool
	Row() []storage.Value
	Err() error
	Stats() any
	Close() error
}

// Error is a backend failure that answers with a specific HTTP status.
type Error struct {
	Status int
	Err    error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Errorf builds an *Error.
func Errorf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Err: fmt.Errorf(format, args...)}
}

// Status maps an error to the HTTP status it answers with: an *Error's
// own status; 504 for a timeout; 503 for a cancelled request (client gone
// or server shutting down); 500 for classified storage failures and a raw
// file that vanished or became unreadable (server faults, not caller
// bugs); 400 for everything else (bad SQL, unknown tables).
func Status(err error) int {
	var he *Error
	var pathErr *fs.PathError
	switch {
	case errors.As(err, &he):
		return he.Status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, errs.ErrRawIO), errors.Is(err, errs.ErrFileShrunk),
		errors.Is(err, errs.ErrDiskFull), errors.Is(err, errs.ErrSnapshotCorrupt),
		errors.As(err, &pathErr):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// tenant is one tenant's slice of the admission controller: a slot pool
// sized by the tenant's weight, plus request accounting.
type tenant struct {
	weight float64
	sem    chan struct{}

	inFlight atomic.Int64
	served   atomic.Int64
	rejected atomic.Int64
}

// Front is the shared HTTP handler. It is safe for concurrent use.
type Front struct {
	cfg     Config
	b       Backend
	mux     *http.ServeMux
	sem     chan struct{}
	tenants map[string]*tenant // by tenant name; nil without a registry

	// Request accounting, all monotonic except inFlight.
	inFlight  atomic.Int64
	served    atomic.Int64 // queries executed to completion (ok or error)
	rejected  atomic.Int64 // 429s from admission control
	cancelled atomic.Int64 // queries that died to cancel/timeout or a gone client
	failed    atomic.Int64 // queries that returned any other error
	panics    atomic.Int64 // handler panics converted to 500s
}

// New builds the front door over b and mounts the shared routes.
func New(cfg Config, b Backend) *Front {
	f := &Front{cfg: cfg, b: b, mux: http.NewServeMux()}
	globalSlots := cfg.maxInFlight()
	if cfg.Tenants != nil {
		// Split the slot pool by weight. Every tenant gets at least one
		// slot, so rounding can push the per-tenant sum past MaxInFlight;
		// the global pool grows to match so a free tenant slot is never
		// blocked by a rounding artifact.
		weights := cfg.Tenants.Weights()
		var sum float64
		for _, w := range weights {
			sum += w
		}
		f.tenants = make(map[string]*tenant, len(weights))
		total := 0
		for name, w := range weights {
			slots := max(int(float64(cfg.maxInFlight())*w/sum+0.5), 1)
			total += slots
			f.tenants[name] = &tenant{weight: w, sem: make(chan struct{}, slots)}
		}
		globalSlots = max(globalSlots, total)
	}
	f.sem = make(chan struct{}, globalSlots)

	f.Handle("/v1/query", f.handleQuery)
	f.Handle("/v1/query/stream", f.handleQueryStream)
	f.Handle("/v1/explain", f.handleExplain)
	f.Handle("/v1/tables", func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, func() (any, error) { return b.Tables(r.Context()) })
	})
	f.Handle("/v1/schema", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("table")
		if name == "" {
			WriteError(w, http.StatusBadRequest, "missing table parameter")
			return
		}
		writeBody(w, func() (any, error) { return b.Schema(r.Context(), name) })
	})
	f.Handle("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, b.Stats(f.Admission()))
	})
	f.Handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, b.Health())
	})
	f.Handle("/readyz", func(w http.ResponseWriter, r *http.Request) {
		status, body := b.Ready(r.Context())
		WriteJSON(w, status, body)
	})
	return f
}

// Handle mounts h at pattern (http.ServeMux syntax) behind the shared
// request-id and panic-recovery wrapper.
func (f *Front) Handle(pattern string, h http.HandlerFunc) {
	f.mux.Handle(pattern, f.wrap(h))
}

// Handler returns the HTTP handler; mount it on an http.Server.
func (f *Front) Handler() http.Handler { return f.mux }

// ServeHTTP implements http.Handler.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// wrap applies the cross-cutting response contract: every response
// carries an X-Request-Id (echoed from the request, or generated), and a
// panicking handler is converted into a 500 with the error envelope
// instead of killing the connection (and, without http.Server's
// recovery, the daemon).
func (f *Front) wrap(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				f.panics.Add(1)
				log.Printf("nodb/httpapi: panic serving %s %s (request %s): %v\n%s",
					r.Method, r.URL.Path, id, rec, debug.Stack())
				if !sw.wrote {
					WriteError(w, http.StatusInternalServerError, "internal error (request %s)", id)
				}
			}
		}()
		h(sw, r)
	})
}

// statusWriter tracks whether a handler wrote anything, so the panic
// recovery knows if a clean error envelope can still be sent.
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

// Flush forwards streaming flushes (the NDJSON endpoint relies on it).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// newRequestID generates a fresh 16-hex-digit request id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// errorEnvelope is every non-200 body: a stable machine-readable code
// plus a human-readable message.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errCode maps an HTTP status to the envelope's stable error code.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_request"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusBadGateway:
		return "upstream_failed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// WriteJSON writes v as a JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes the error envelope with the status's code.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorEnvelope{Error: errorBody{
		Code:    errCode(status),
		Message: fmt.Sprintf(format, args...),
	}})
}

// writeBody answers with a backend's body, or with its error's status.
func writeBody(w http.ResponseWriter, body func() (any, error)) {
	v, err := body()
	if err != nil {
		WriteError(w, Status(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

// DecodeBody decodes the JSON request body into v under the body-size
// cap, answering 413 or 400 itself when it cannot.
func (f *Front) DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, f.cfg.maxBodyBytes())
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// queryRequest is the /v1/query, /v1/query/stream and /v1/explain
// request body.
type queryRequest struct {
	Query string `json:"query"`
	// TimeoutMS bounds this query; 0 uses the default. Capped by
	// Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// readQueryRequest accepts POST {"query": ...} or GET ?q=...&timeout_ms=...
func (f *Front) readQueryRequest(w http.ResponseWriter, r *http.Request) (queryRequest, bool) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		req.Query = r.URL.Query().Get("q")
		if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
			v, err := strconv.ParseInt(ms, 10, 64)
			if err != nil || v < 0 {
				WriteError(w, http.StatusBadRequest, "invalid timeout_ms %q", ms)
				return queryRequest{}, false
			}
			req.TimeoutMS = v
		}
	case http.MethodPost:
		if !f.DecodeBody(w, r, &req) {
			return queryRequest{}, false
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return queryRequest{}, false
	}
	if req.Query == "" {
		WriteError(w, http.StatusBadRequest, "missing query")
		return queryRequest{}, false
	}
	return req, true
}

// resolveTenant maps the request's X-API-Key to a tenant name. Without a
// registry everyone is the default tenant; with one, unknown keys are
// rejected with 401 or mapped to the default tenant per the registry's
// policy.
func (f *Front) resolveTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	if f.cfg.Tenants == nil {
		return qos.DefaultTenant, true
	}
	t, err := f.cfg.Tenants.Resolve(r.Header.Get("X-API-Key"))
	if err != nil {
		WriteJSON(w, http.StatusUnauthorized, errorEnvelope{Error: errorBody{
			Code:    "unknown_api_key",
			Message: "unknown API key (set X-API-Key to a configured tenant key)",
		}})
		return "", false
	}
	return t.Name, true
}

// Admit reserves an execution slot for tenant, or answers 429 with a
// Retry-After header itself. With tenants configured the slot comes out
// of the tenant's own pool first, so a saturating tenant exhausts only
// its share and everyone else keeps admitting. Every refusal counts
// against the tenant it was made for, whichever pool refused. The release
// func must be called when the query finishes.
func (f *Front) Admit(w http.ResponseWriter, tenant string) (release func(), ok bool) {
	ts := f.tenants[tenant]
	if ts != nil {
		select {
		case ts.sem <- struct{}{}:
		default:
			f.reject(w, ts, "tenant %q at capacity (%d queries in flight)", tenant, cap(ts.sem))
			return nil, false
		}
	}
	select {
	case f.sem <- struct{}{}:
		f.inFlight.Add(1)
		if ts != nil {
			ts.inFlight.Add(1)
		}
		return func() {
			f.inFlight.Add(-1)
			<-f.sem
			if ts != nil {
				ts.inFlight.Add(-1)
				<-ts.sem
			}
		}, true
	default:
		if ts != nil {
			<-ts.sem
		}
		f.reject(w, ts, "server at capacity (%d queries in flight)", cap(f.sem))
		return nil, false
	}
}

func (f *Front) reject(w http.ResponseWriter, ts *tenant, format string, args ...any) {
	if ts != nil {
		ts.rejected.Add(1)
	}
	f.rejected.Add(1)
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusTooManyRequests, format, args...)
}

// queryContext derives the execution context: the client's own context
// (cancelled on disconnect) plus the request or default timeout, tagged
// with the tenant so the engine attributes memory to it and with the raw
// API key so a coordinator forwards the caller's identity to its shards.
func (f *Front) queryContext(r *http.Request, req queryRequest, tenant string) (context.Context, context.CancelFunc) {
	timeout := f.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if f.cfg.MaxTimeout > 0 && (timeout == 0 || timeout > f.cfg.MaxTimeout) {
		timeout = f.cfg.MaxTimeout
	}
	ctx := qos.WithTenant(r.Context(), tenant)
	if key := r.Header.Get("X-API-Key"); key != "" {
		ctx = qos.WithAPIKey(ctx, key)
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// begin is the prologue of the query-shaped endpoints, in one order for
// every backend: resolve the tenant (an unknown key is 401 whatever the
// body holds), decode the request, take an admission slot when admit is
// set, and derive the query context. On success the caller must call
// done when the query finishes.
func (f *Front) begin(w http.ResponseWriter, r *http.Request, admit bool) (query, tenant string, ctx context.Context, done func(), ok bool) {
	tenant, ok = f.resolveTenant(w, r)
	if !ok {
		return "", "", nil, nil, false
	}
	req, ok := f.readQueryRequest(w, r)
	if !ok {
		return "", "", nil, nil, false
	}
	release := func() {}
	if admit {
		if release, ok = f.Admit(w, tenant); !ok {
			return "", "", nil, nil, false
		}
	}
	ctx, cancel := f.queryContext(r, req, tenant)
	return req.Query, tenant, ctx, func() { cancel(); release() }, true
}

// servedBy counts one executed query for the server and its tenant.
func (f *Front) servedBy(tenant string) {
	f.served.Add(1)
	if ts := f.tenants[tenant]; ts != nil {
		ts.served.Add(1)
	}
}

// countFailure classifies a failed query as cancelled (timeout, client
// gone) or failed, and returns the status it answers with.
func (f *Front) countFailure(err error) int {
	status := Status(err)
	if status == http.StatusGatewayTimeout || status == http.StatusServiceUnavailable {
		f.cancelled.Add(1)
	} else {
		f.failed.Add(1)
	}
	return status
}

func (f *Front) handleQuery(w http.ResponseWriter, r *http.Request) {
	query, tenant, ctx, done, ok := f.begin(w, r, true)
	if !ok {
		return
	}
	defer done()
	res, err := f.b.Query(ctx, query)
	f.servedBy(tenant)
	if err != nil {
		WriteError(w, f.countFailure(err), "%v", err)
		return
	}
	rows := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = encodeRow(row)
	}
	WriteJSON(w, http.StatusOK, struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
		Stats   any      `json:"stats"`
	}{res.Columns, rows, res.Stats})
}

func (f *Front) handleExplain(w http.ResponseWriter, r *http.Request) {
	query, _, ctx, done, ok := f.begin(w, r, false)
	if !ok {
		return
	}
	defer done()
	writeBody(w, func() (any, error) {
		p, err := f.b.Explain(ctx, query)
		return map[string]string{"plan": p}, err
	})
}

// AdmissionStats is the front door's request accounting, the "server"
// block of /v1/stats.
type AdmissionStats struct {
	InFlight    int64 `json:"in_flight"`
	MaxInFlight int   `json:"max_in_flight"`
	Served      int64 `json:"served"`
	Rejected    int64 `json:"rejected"`
	Cancelled   int64 `json:"cancelled"`
	Failed      int64 `json:"failed"`
	Panics      int64 `json:"panics"`
}

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	Weight   float64 `json:"weight"`
	Slots    int     `json:"slots"`
	InFlight int64   `json:"in_flight"`
	Served   int64   `json:"served"`
	Rejected int64   `json:"rejected"`
}

// Admission is a snapshot of the front door's accounting. Tenants is nil
// without a registry.
type Admission struct {
	Server  AdmissionStats
	Tenants map[string]TenantStats
}

// Admission snapshots the request accounting.
func (f *Front) Admission() Admission {
	a := Admission{Server: AdmissionStats{
		InFlight:    f.inFlight.Load(),
		MaxInFlight: cap(f.sem),
		Served:      f.served.Load(),
		Rejected:    f.rejected.Load(),
		Cancelled:   f.cancelled.Load(),
		Failed:      f.failed.Load(),
		Panics:      f.panics.Load(),
	}}
	if len(f.tenants) > 0 {
		a.Tenants = make(map[string]TenantStats, len(f.tenants))
		for name, ts := range f.tenants {
			a.Tenants[name] = TenantStats{
				Weight:   ts.weight,
				Slots:    cap(ts.sem),
				InFlight: ts.inFlight.Load(),
				Served:   ts.served.Load(),
				Rejected: ts.rejected.Load(),
			}
		}
	}
	return a
}
