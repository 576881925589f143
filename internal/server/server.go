// Package server exposes a nodb.DB over HTTP/JSON: many concurrent
// clients, one shared engine. It is the network layer of the NoDB
// reproduction — "here are my data files, here are my queries" as a
// service instead of a library call.
//
// The HTTP contract — request ids, the error envelope, tenant admission
// (excess requests get 429 instead of piling onto the engine), per-request
// timeouts, the buffered and NDJSON query endpoints, /v1/explain,
// /v1/tables, /v1/schema, /v1/stats and the probes — is the front door in
// internal/httpapi, shared with the cluster coordinator. This package is
// the node's backend behind it: queries run through the engine
// (/v1/query/stream through its streaming cursor, so the first rows
// arrive while the raw-file scan is still running and a client that
// disconnects stops the scan between chunks), and the node adds
//
//	PUT  /v1/tables/{name} {"path": "...", "format": "",      -> attach (or replace) a table
//	                        "delimiter": "", "follow": false}
//	DELETE /v1/tables/{name}                                  -> detach a table
//	POST /v1/tables/{name}/refresh                            -> re-stat the raw file now; appended
//	                                                             rows are folded in incrementally
//	GET  /v1/cluster/synopsis                                 -> scan synopses for shard pruning
//
// plus a periodic snapshot flusher and the follow loop that folds
// appended rows into followed tables.
package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nodb"
	"nodb/internal/cluster"
	"nodb/internal/httpapi"
	"nodb/internal/metrics"
	"nodb/internal/qos"
)

// Config configures a Server.
type Config struct {
	// DB is the shared engine. Required.
	DB *nodb.DB
	// MaxInFlight caps concurrently executing queries; further requests
	// are rejected with 429 until a slot frees (default 64).
	MaxInFlight int
	// DefaultTimeout bounds each query when the request does not set its
	// own (0 = no server-side timeout; the client context still applies).
	DefaultTimeout time.Duration
	// MaxTimeout caps the timeout a request may ask for (default: no cap).
	MaxTimeout time.Duration
	// MaxBodyBytes caps request body size (default 1 MiB).
	MaxBodyBytes int64
	// SnapshotInterval is how often the server flushes the DB's
	// auxiliary-structure snapshots to its cache dir, so a crash loses at
	// most one interval of adaptive learning. 0 disables the flusher;
	// the flush is a no-op when the DB has no CacheDir configured.
	SnapshotInterval time.Duration
	// Tenants maps API keys to tenants and splits MaxInFlight into
	// per-tenant admission slots by weight, so one tenant's burst cannot
	// consume another's capacity. nil serves everyone as one anonymous
	// tenant with the shared slot pool.
	Tenants *qos.Registry
	// FollowInterval is how often the server re-stats the raw files of
	// tables attached with follow=true, folding appended rows into the
	// learned structures incrementally (nodbd's -follow flag). 0 disables
	// the poll loop; explicit POST /v1/tables/{name}/refresh always works.
	FollowInterval time.Duration
}

// Server serves queries against one shared DB. The embedded front door
// supplies the HTTP contract; Server adds the node's backend, the table
// lifecycle routes, and the snapshot and follow loops.
type Server struct {
	*httpapi.Front
	db *nodb.DB

	started time.Time

	// Periodic snapshot flusher lifecycle (nil channels when disabled).
	flushStop chan struct{}
	flushDone chan struct{}
	// Tail-follow poll loop lifecycle (nil channels when disabled).
	followStop chan struct{}
	followDone chan struct{}
	closeOnce  sync.Once

	// ready flips once the operator has attached all tables; /readyz
	// serves 503 until then so a coordinator doesn't route queries at a
	// node still attaching files.
	ready atomic.Bool

	// Node accounting beyond the front door's, all monotonic.
	snapSaves     atomic.Int64 // periodic snapshot flushes that succeeded
	snapErrors    atomic.Int64 // periodic snapshot flushes that failed
	refreshes     atomic.Int64 // explicit + follow-loop refreshes that completed
	refreshErrors atomic.Int64 // refreshes that failed (I/O errors re-statting)
	grown         atomic.Int64 // refreshes that folded in appended rows incrementally

	// followMu guards follow, the per-table backoff state of the follow
	// loop: a table whose refresh keeps failing is retried with
	// exponentially growing intervals instead of every poll tick.
	followMu sync.Mutex
	follow   map[string]*followState
}

// followState is one followed table's refresh-failure backoff.
type followState struct {
	failures int       // consecutive refresh failures
	nextTry  time.Time // do not re-poll before this
}

// followBackoffCap bounds the follow loop's per-table retry interval.
const followBackoffCap = 5 * time.Minute

// New creates a Server around cfg.DB.
func New(cfg Config) *Server {
	s := &Server{db: cfg.DB, started: time.Now()}
	s.Front = httpapi.New(httpapi.Config{
		MaxInFlight:    cfg.MaxInFlight,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		MaxBodyBytes:   cfg.MaxBodyBytes,
		Tenants:        cfg.Tenants,
	}, httpapi.Backend{
		Query:       s.query,
		QueryStream: s.queryStream,
		Explain:     s.db.ExplainContext,
		Tables:      s.tables,
		Schema:      s.schema,
		Stats:       s.stats,
		Health:      s.health,
		Ready:       s.readiness,
	})
	s.Handle("PUT /v1/tables/{name}", s.handleTableAttach)
	s.Handle("DELETE /v1/tables/{name}", s.handleTableDetach)
	s.Handle("POST /v1/tables/{name}/refresh", s.handleTableRefresh)
	s.Handle("/v1/cluster/synopsis", s.handleClusterSynopsis)
	if cfg.SnapshotInterval > 0 {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop(cfg.SnapshotInterval)
	}
	if cfg.FollowInterval > 0 {
		s.followStop = make(chan struct{})
		s.followDone = make(chan struct{})
		go s.followLoop(cfg.FollowInterval)
	}
	return s
}

// flushLoop periodically persists the DB's auxiliary structures so the
// adaptive learning accumulated under live traffic survives a crash, not
// just a graceful shutdown.
func (s *Server) flushLoop(interval time.Duration) {
	defer close(s.flushDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := s.db.Snapshot(); err != nil {
				s.snapErrors.Add(1)
			} else {
				s.snapSaves.Add(1)
			}
		case <-s.flushStop:
			return
		}
	}
}

// followLoop periodically refreshes every followed table, folding
// appended rows into the learned structures incrementally. Polling (not
// file notification) keeps the daemon dependency-free; the interval
// bounds staleness, and a poll that finds nothing new is one stat call
// per followed table.
func (s *Server) followLoop(interval time.Duration) {
	defer close(s.followDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			now := time.Now()
			for _, name := range s.db.Followed() {
				if !s.followDue(name, now) {
					continue
				}
				res, err := s.db.Refresh(name)
				if err != nil {
					s.refreshErrors.Add(1)
					s.followFailed(name, interval, now)
					continue
				}
				s.followOK(name)
				s.refreshes.Add(1)
				if res.Grown {
					s.grown.Add(1)
				}
			}
		case <-s.followStop:
			return
		}
	}
}

// followDue reports whether a followed table should be polled this tick,
// honoring its failure backoff.
func (s *Server) followDue(name string, now time.Time) bool {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	st, ok := s.follow[name]
	if !ok {
		return true
	}
	return !now.Before(st.nextTry)
}

// followFailed records a refresh failure and doubles the table's retry
// delay: interval, 2*interval, 4*interval, ... capped at
// followBackoffCap. A permanently broken file then costs one refresh
// attempt per cap window instead of one per tick.
func (s *Server) followFailed(name string, interval time.Duration, now time.Time) {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	if s.follow == nil {
		s.follow = make(map[string]*followState)
	}
	st := s.follow[name]
	if st == nil {
		st = &followState{}
		s.follow[name] = st
	}
	st.failures++
	delay := interval << (st.failures - 1)
	if st.failures > 20 || delay > followBackoffCap || delay <= 0 {
		delay = followBackoffCap
	}
	st.nextTry = now.Add(delay)
}

// followOK clears a table's backoff after a successful refresh.
func (s *Server) followOK(name string) {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	delete(s.follow, name)
}

// followBackoffs snapshots the tables currently backing off: name →
// consecutive failures. Exposed in /v1/stats so an operator can see that
// follow mode is alive but a specific table keeps failing.
func (s *Server) followBackoffs() map[string]int {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	if len(s.follow) == 0 {
		return nil
	}
	out := make(map[string]int, len(s.follow))
	for name, st := range s.follow {
		out[name] = st.failures
	}
	return out
}

// Close stops the periodic snapshot flusher and follow loop (if any) and
// performs a final flush. It does not close the DB — the caller owns
// that. Idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.followStop != nil {
			close(s.followStop)
			<-s.followDone
		}
		if s.flushStop != nil {
			close(s.flushStop)
			<-s.flushDone
		}
		err = s.db.Snapshot()
	})
	return err
}

// queryStatsJSON is the "stats" object of a node's query responses and
// stream trailers.
type queryStatsJSON struct {
	WallMicros int64            `json:"wall_us"`
	Work       metrics.Snapshot `json:"work"`
	Plan       string           `json:"plan"`
}

func statsJSON(st nodb.QueryStats) queryStatsJSON {
	return queryStatsJSON{WallMicros: st.Wall.Microseconds(), Work: st.Work, Plan: st.Plan}
}

// query runs a buffered /v1/query through the engine.
func (s *Server) query(ctx context.Context, query string) (httpapi.Result, error) {
	res, err := s.db.QueryContext(ctx, query)
	if err != nil {
		return httpapi.Result{}, err
	}
	return httpapi.Result{Columns: res.Columns, Rows: res.Rows, Stats: statsJSON(res.Stats)}, nil
}

// queryStream opens the engine's streaming cursor for /v1/query/stream:
// the first rows reach the client while the raw-file scan is still
// running, and a disconnect stops the scan between chunks.
func (s *Server) queryStream(ctx context.Context, query string) (httpapi.Rows, error) {
	rows, err := s.db.QueryRows(ctx, query)
	if err != nil {
		return nil, err
	}
	return cursor{rows}, nil
}

// cursor adapts the engine's cursor to the front door's Rows.
type cursor struct{ *nodb.Rows }

func (c cursor) Stats() any { return statsJSON(c.Rows.Stats()) }

// signatureJSON renders a raw file's signature.
type signatureJSON struct {
	Size      int64  `json:"size"`
	ModTime   int64  `json:"mod_time"`
	PrefixCRC uint32 `json:"prefix_crc"`
	TailCRC   uint32 `json:"tail_crc"`
}

// tableInfoJSON is one table's entry in /v1/tables: identity, the raw
// file's signature, and the adaptation state built for it so far.
type tableInfoJSON struct {
	Name             string           `json:"name"`
	Path             string           `json:"path"`
	Follow           bool             `json:"follow"`
	Rows             int64            `json:"rows"`
	Signature        signatureJSON    `json:"signature"`
	DenseCols        int              `json:"dense_cols"`
	SparseCols       int              `json:"sparse_cols"`
	Regions          int              `json:"regions"`
	PosMapEntries    int              `json:"posmap_entries"`
	SynopsisPortions int              `json:"synopsis_portions"`
	SynopsisBounds   int              `json:"synopsis_bounds"`
	SplitBytes       int64            `json:"split_bytes"`
	MemBytes         int64            `json:"mem_bytes"`
	Ingest           nodb.IngestStats `json:"ingest"`
}

// tableInfo assembles one table's /v1/tables entry.
func (s *Server) tableInfo(name string, followed map[string]bool) (tableInfoJSON, error) {
	st, err := s.db.TableStats(name)
	if err != nil {
		return tableInfoJSON{}, err
	}
	return tableInfoJSON{
		Name:   name,
		Path:   st.Path,
		Follow: followed[name],
		Rows:   st.Rows,
		Signature: signatureJSON{
			Size:      st.Signature.Size,
			ModTime:   st.Signature.ModTime,
			PrefixCRC: st.Signature.Prefix,
			TailCRC:   st.Signature.Tail,
		},
		DenseCols:        len(st.DenseCols),
		SparseCols:       len(st.SparseCols),
		Regions:          st.Regions,
		PosMapEntries:    st.PosMapEntries,
		SynopsisPortions: st.SynopsisPortions,
		SynopsisBounds:   st.SynopsisBounds,
		SplitBytes:       st.SplitBytes,
		MemBytes:         st.MemBytes,
		Ingest:           st.Ingest,
	}, nil
}

// followedSet returns the followed table names as a set.
func (s *Server) followedSet() map[string]bool {
	set := map[string]bool{}
	for _, n := range s.db.Followed() {
		set[n] = true
	}
	return set
}

func (s *Server) tables(context.Context) (any, error) {
	followed := s.followedSet()
	infos := []tableInfoJSON{}
	for _, name := range s.db.Tables() {
		info, err := s.tableInfo(name, followed)
		if err != nil {
			continue // detached concurrently
		}
		infos = append(infos, info)
	}
	return map[string][]tableInfoJSON{"tables": infos}, nil
}

// tableSpecJSON is the PUT /v1/tables/{name} request body.
type tableSpecJSON struct {
	// Path is the raw file to attach. Required.
	Path string `json:"path"`
	// Format forces "csv" or "ndjson"; empty sniffs.
	Format string `json:"format,omitempty"`
	// Delimiter forces the CSV delimiter (one character); empty sniffs.
	Delimiter string `json:"delimiter,omitempty"`
	// Follow marks the table for the daemon's tail-follow poll loop.
	Follow bool `json:"follow,omitempty"`
}

func (s *Server) handleTableAttach(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var spec tableSpecJSON
	if !s.DecodeBody(w, r, &spec) {
		return
	}
	if spec.Path == "" {
		httpapi.WriteError(w, http.StatusBadRequest, "missing path")
		return
	}
	var delim byte
	if spec.Delimiter != "" {
		if len(spec.Delimiter) != 1 {
			httpapi.WriteError(w, http.StatusBadRequest, "delimiter must be a single character, got %q", spec.Delimiter)
			return
		}
		delim = spec.Delimiter[0]
	}
	err := s.db.Attach(name, nodb.TableSpec{
		Path:      spec.Path,
		Format:    spec.Format,
		Delimiter: delim,
		Follow:    spec.Follow,
	})
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := s.tableInfo(name, s.followedSet())
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, info)
}

func (s *Server) handleTableDetach(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.db.Detach(name); err != nil {
		httpapi.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"detached": name})
}

func (s *Server) handleTableRefresh(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.db.Schema(name); err != nil {
		httpapi.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	res, err := s.db.Refresh(name)
	if err != nil {
		s.refreshErrors.Add(1)
		httpapi.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.refreshes.Add(1)
	if res.Grown {
		s.grown.Add(1)
	}
	httpapi.WriteJSON(w, http.StatusOK, res)
}

// schemaJSON renders a detected schema.
type schemaJSON struct {
	Delimiter string          `json:"delimiter"`
	HasHeader bool            `json:"has_header"`
	Columns   []schemaColJSON `json:"columns"`
}

type schemaColJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func (s *Server) schema(_ context.Context, name string) (any, error) {
	sch, err := s.db.Schema(name)
	if err != nil {
		return nil, &httpapi.Error{Status: http.StatusNotFound, Err: err}
	}
	out := schemaJSON{
		Delimiter: string(sch.Delimiter),
		HasHeader: sch.HasHeader,
		Columns:   make([]schemaColJSON, 0, len(sch.Columns)),
	}
	for _, c := range sch.Columns {
		out.Columns = append(out.Columns, schemaColJSON{Name: c.Name, Type: c.Type.String()})
	}
	return out, nil
}

// statsResponse is the /v1/stats response body.
type statsResponse struct {
	UptimeSeconds float64                        `json:"uptime_seconds"`
	Policy        string                         `json:"policy"`
	MemBytes      int64                          `json:"mem_bytes"`
	Memory        nodb.MemStats                  `json:"memory"`
	ResultCache   nodb.ResultCacheStats          `json:"result_cache"`
	Snapshot      nodb.SnapStats                 `json:"snapshot"`
	Work          metrics.Snapshot               `json:"work"`
	Server        serverStatsJSON                `json:"server"`
	Tenants       map[string]httpapi.TenantStats `json:"tenants,omitempty"`
	// Ingest is the per-table append-ingestion accounting (rows/bytes
	// folded in by incremental tail extensions); Followed lists the
	// tables the follow loop polls.
	Ingest   map[string]nodb.IngestStats `json:"ingest,omitempty"`
	Followed []string                    `json:"followed,omitempty"`
}

// serverStatsJSON is the front door's admission accounting plus the
// node's background-loop counters.
type serverStatsJSON struct {
	httpapi.AdmissionStats
	SnapshotSaves  int64 `json:"snapshot_saves"`
	SnapshotErrors int64 `json:"snapshot_errors"`
	Refreshes      int64 `json:"refreshes"`
	RefreshErrors  int64 `json:"refresh_errors"`
	Grown          int64 `json:"grown"`
	// RefreshBackoff lists followed tables whose refreshes keep failing:
	// table → consecutive failures (absent when everything is healthy).
	RefreshBackoff map[string]int `json:"refresh_backoff,omitempty"`
}

func (s *Server) stats(adm httpapi.Admission) any {
	ingest := map[string]nodb.IngestStats{}
	for _, name := range s.db.Tables() {
		if st, err := s.db.TableStats(name); err == nil {
			ingest[name] = st.Ingest
		}
	}
	return statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Policy:        s.db.Policy().String(),
		MemBytes:      s.db.MemSize(),
		Memory:        s.db.MemStats(),
		ResultCache:   s.db.ResultCacheStats(),
		Snapshot:      s.db.SnapStats(),
		Work:          s.db.Work(),
		Tenants:       adm.Tenants,
		Ingest:        ingest,
		Followed:      s.db.Followed(),
		Server: serverStatsJSON{
			AdmissionStats: adm.Server,
			SnapshotSaves:  s.snapSaves.Load(),
			SnapshotErrors: s.snapErrors.Load(),
			Refreshes:      s.refreshes.Load(),
			RefreshErrors:  s.refreshErrors.Load(),
			Grown:          s.grown.Load(),
			RefreshBackoff: s.followBackoffs(),
		},
	}
}

// health is the liveness body. The node serves as long as the process
// is up; when the snapshot tier has degraded to memory-only after an
// out-of-space write, the body says so — the node still serves correct
// results, it just cannot persist adaptive state.
func (s *Server) health() any {
	if s.db.SnapStats().Degraded {
		return map[string]string{
			"status": "degraded",
			"reason": "snapshot tier disk full; running memory-only",
		}
	}
	return map[string]string{"status": "ok"}
}

// MarkReady declares the server ready to serve queries: every configured
// table is attached. Distinct from liveness — /healthz answers ok from
// the moment the process is up, /readyz only after MarkReady.
func (s *Server) MarkReady() { s.ready.Store(true) }

// readiness is the probe coordinators use for shard admission: 503 while
// starting (tables still attaching), 200 with the attached table set
// once MarkReady has been called.
func (s *Server) readiness(context.Context) (int, any) {
	if !s.ready.Load() {
		return http.StatusServiceUnavailable, map[string]string{"status": "starting"}
	}
	tables := s.db.Tables()
	if tables == nil {
		tables = []string{}
	}
	return http.StatusOK, struct {
		Status string   `json:"status"`
		Tables []string `json:"tables"`
	}{Status: "ok", Tables: tables}
}

// handleClusterSynopsis exports every attached table's scan synopsis (the
// per-portion zone maps), schema, and raw-file signature, for
// coordinator-side shard pruning. Tables whose synopsis is incomplete
// export with no portions — a coordinator can then bind names but not
// prune, which is always safe.
func (s *Server) handleClusterSynopsis(w http.ResponseWriter, r *http.Request) {
	out := cluster.SynopsisResponse{Tables: map[string]cluster.TableSynopsis{}}
	for _, name := range s.db.Tables() {
		exp, err := s.db.TableSynopsis(name)
		if err != nil {
			continue
		}
		sch, err := s.db.Schema(name)
		if err != nil {
			continue
		}
		out.Tables[name] = cluster.EncodeTableSynopsis(exp, sch)
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}
