package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodb/internal/exec"
	"nodb/internal/httpapi"
	"nodb/internal/metrics"
	"nodb/internal/qos"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Shards are the shard nodbd addresses (host:port or full URLs).
	// Required, at least one.
	Shards []string
	// HTTPClient is shared by all shard clients (nil: http.DefaultClient).
	HTTPClient *http.Client
	// ShardTimeout bounds each attempt against one shard (0 = none).
	ShardTimeout time.Duration
	// Retries is how many times a failed shard interaction is retried
	// (total attempts = Retries+1). Default 2.
	Retries int
	// RetryBackoff is the first retry's wait, doubling per retry
	// (default 100ms; negative = none).
	RetryBackoff time.Duration
	// SynopsisTTL bounds how long a cached shard synopsis is trusted for
	// pruning (default 5s).
	SynopsisTTL time.Duration
	// HealthInterval is the /readyz polling period (0 disables the
	// background poller; shards are then assumed ready and failures
	// surface through the query path).
	HealthInterval time.Duration
	// AllowPartial completes queries with partial results when a shard
	// stays dead, reporting the failed shards in the stats trailer.
	// When false a dead shard fails the whole query.
	AllowPartial bool
	// BreakerThreshold is how many consecutive failures open a shard's
	// circuit breaker (0 = default 3; breakers cannot be disabled, only
	// tuned — an open breaker costs nothing when shards are healthy).
	BreakerThreshold int
	// BreakerBackoff is the breaker's first open interval, doubling per
	// consecutive re-open up to a 30s cap (0 = default 500ms).
	BreakerBackoff time.Duration
	// MaxInFlight caps concurrently executing queries (default 64).
	MaxInFlight int
	// DefaultTimeout bounds each query when the request does not set its
	// own; MaxTimeout caps what a request may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps request body size (default 1 MiB).
	MaxBodyBytes int64
	// Tenants maps API keys to tenants at the cluster's front door:
	// unknown keys are rejected or defaulted per the registry's policy,
	// MaxInFlight is split into per-tenant admission slots by weight, and
	// the caller's key is forwarded to shards so their own accounting
	// agrees. nil serves everyone as one anonymous tenant.
	Tenants *qos.Registry
}

func (c CoordinatorConfig) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 2
	}
	return c.Retries
}

func (c CoordinatorConfig) retryBackoff() time.Duration {
	if c.RetryBackoff == 0 {
		return 100 * time.Millisecond
	}
	if c.RetryBackoff < 0 {
		return 0
	}
	return c.RetryBackoff
}

func (c CoordinatorConfig) synopsisTTL() time.Duration {
	if c.SynopsisTTL <= 0 {
		return 5 * time.Second
	}
	return c.SynopsisTTL
}

// Shard readiness as seen by the background poller.
const (
	shardUnknown int32 = iota // never probed: assume ready, let retry sort it out
	shardReady
	shardUnready
)

// synEntry is one shard's cached synopsis.
type synEntry struct {
	resp *SynopsisResponse
	at   time.Time
}

// Coordinator fans queries out to shard nodbd instances and merges their
// partial streams into one result. It serves the same HTTP front door as
// a single-node server (internal/httpapi), so clients cannot tell a
// coordinator from a node — except for the extra "cluster" block in stats
// trailers.
type Coordinator struct {
	*httpapi.Front
	cfg    CoordinatorConfig
	shards []*ShardClient

	started time.Time
	work    metrics.Counters // cluster-wide work counters across queries

	ready []atomic.Int32 // per-shard readiness (shardUnknown/Ready/Unready)

	// breakers is the per-shard circuit-breaker array, aligned with
	// shards. Breakers persist across queries: consecutive failures
	// accumulate no matter which query observed them.
	breakers []*Breaker

	synMu    sync.Mutex
	synCache map[int]synEntry

	healthStop chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once
}

// NewCoordinator builds a coordinator over cfg.Shards.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	c := &Coordinator{
		cfg:      cfg,
		started:  time.Now(),
		ready:    make([]atomic.Int32, len(cfg.Shards)),
		breakers: make([]*Breaker, len(cfg.Shards)),
		synCache: map[int]synEntry{},
	}
	for i := range c.breakers {
		c.breakers[i] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerBackoff, 0)
	}
	for _, addr := range cfg.Shards {
		c.shards = append(c.shards, NewShardClient(addr, cfg.HTTPClient))
	}
	c.Front = httpapi.New(httpapi.Config{
		MaxInFlight:    cfg.MaxInFlight,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		MaxBodyBytes:   cfg.MaxBodyBytes,
		Tenants:        cfg.Tenants,
	}, httpapi.Backend{
		Query:       c.query,
		QueryStream: c.queryStream,
		Explain:     c.explain,
		Tables:      c.tables,
		Schema:      c.schema,
		Stats:       c.stats,
		Health:      func() any { return map[string]string{"status": "ok"} },
		Ready:       c.readiness,
	})
	if cfg.HealthInterval > 0 {
		c.healthStop = make(chan struct{})
		c.healthDone = make(chan struct{})
		go c.healthLoop(cfg.HealthInterval)
	}
	return c, nil
}

// Close stops the health poller. Idempotent.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		if c.healthStop != nil {
			close(c.healthStop)
			<-c.healthDone
		}
	})
	return nil
}

// Work returns the coordinator's cumulative cluster work counters.
func (c *Coordinator) Work() metrics.Snapshot { return c.work.Snapshot() }

// healthLoop marks shard readiness in the background so queries admit
// only shards believed alive, without paying a probe per query.
func (c *Coordinator) healthLoop(interval time.Duration) {
	defer close(c.healthDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	c.probeAll(context.Background())
	for {
		select {
		case <-tick.C:
			c.probeAll(context.Background())
		case <-c.healthStop:
			return
		}
	}
}

// probeAll probes every shard's /readyz concurrently and records its
// readiness.
func (c *Coordinator) probeAll(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
	defer cancel()
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.shards[i].Ready(ctx); err != nil {
				c.ready[i].Store(shardUnready)
			} else {
				c.ready[i].Store(shardReady)
			}
		}(i)
	}
	wg.Wait()
}

func (c *Coordinator) probeTimeout() time.Duration {
	if c.cfg.ShardTimeout > 0 && c.cfg.ShardTimeout < 2*time.Second {
		return c.cfg.ShardTimeout
	}
	return 2 * time.Second
}

// shardSynopsis returns shard i's synopsis, from cache when fresh. A
// fetch failure returns nil — pruning is opportunistic, never a query
// failure.
func (c *Coordinator) shardSynopsis(ctx context.Context, i int) *SynopsisResponse {
	c.synMu.Lock()
	e, ok := c.synCache[i]
	c.synMu.Unlock()
	if ok && time.Since(e.at) < c.cfg.synopsisTTL() {
		return e.resp
	}
	fctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
	defer cancel()
	resp, err := c.shards[i].Synopsis(fctx)
	if err != nil {
		return nil
	}
	c.synMu.Lock()
	c.synCache[i] = synEntry{resp: resp, at: time.Now()}
	c.synMu.Unlock()
	return resp
}

// queryClusterStats accumulates one query's cluster-level outcomes;
// retries and bytes arrive from per-shard goroutines.
type queryClusterStats struct {
	shardsTotal int
	pruned      int
	retries     atomic.Int64
	bytes       atomic.Int64
	rows        atomic.Int64

	mu     sync.Mutex
	failed []string
}

func (st *queryClusterStats) fail(shard string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, f := range st.failed {
		if f == shard {
			return
		}
	}
	st.failed = append(st.failed, shard)
}

func (st *queryClusterStats) failedShards() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.failed...)
}

// clusterStatsJSON is the "cluster" block of coordinator responses.
type clusterStatsJSON struct {
	ShardsTotal    int      `json:"shards_total"`
	ShardsPruned   int      `json:"shards_pruned"`
	ShardRetries   int64    `json:"shard_retries"`
	PartialResults bool     `json:"partial_results"`
	FailedShards   []string `json:"failed_shards,omitempty"`
	BytesMerged    int64    `json:"bytes_merged"`
	RowsMerged     int64    `json:"rows_merged"`
}

func (st *queryClusterStats) json() clusterStatsJSON {
	failed := st.failedShards()
	return clusterStatsJSON{
		ShardsTotal:    st.shardsTotal,
		ShardsPruned:   st.pruned,
		ShardRetries:   st.retries.Load(),
		PartialResults: len(failed) > 0,
		FailedShards:   failed,
		BytesMerged:    st.bytes.Load(),
		RowsMerged:     st.rows.Load(),
	}
}

// fold accumulates the query's outcomes into the coordinator-wide work
// counters.
func (c *Coordinator) fold(st *queryClusterStats) {
	c.work.AddShardsPruned(int64(st.pruned))
	c.work.AddShardRetries(st.retries.Load())
	c.work.AddShardBytesMerged(st.bytes.Load())
	if len(st.failedShards()) > 0 {
		c.work.AddPartialResults(1)
	}
}

// coordStatsJSON is the coordinator's query stats trailer.
type coordStatsJSON struct {
	WallMicros int64            `json:"wall_us"`
	Plan       string           `json:"plan"`
	Cluster    clusterStatsJSON `json:"cluster"`
}

// scatterResult is one executed query: the final columns and either a
// streaming iterator (ModeConcat/ModeSortMerge) or materialized rows
// (ModeAgg/ModeGroupAgg; iter is a slice iterator over them). It is the
// front door's row cursor; Close must be called when consumption ends,
// successful or not.
type scatterResult struct {
	columns []string
	iter    exec.RowIter
	cleanup func()
	stats   *queryClusterStats
	plan    *ScatterPlan
	start   time.Time

	row []storage.Value
	err error
}

func (r *scatterResult) Columns() []string    { return r.columns }
func (r *scatterResult) Row() []storage.Value { return r.row }
func (r *scatterResult) Err() error           { return r.err }
func (r *scatterResult) Close() error         { r.cleanup(); return nil }

func (r *scatterResult) Next() bool {
	row, ok, err := r.iter.Next()
	if err != nil {
		r.err = err
		return false
	}
	if ok {
		r.row = row
		r.stats.rows.Add(1)
	}
	return ok
}

// Stats is the coordinator's stats object: wall time, the scatter plan,
// and the cluster block with partial_results and the failed shards when
// degraded.
func (r *scatterResult) Stats() any {
	return coordStatsJSON{
		WallMicros: time.Since(r.start).Microseconds(),
		Plan:       planString(r.plan, r.stats),
		Cluster:    r.stats.json(),
	}
}

// shardFatal converts a terminal shard error into the scatter error the
// client sees: a shard's own 4xx (it rejected the query) passes through,
// anything else is a bad-gateway-style upstream failure.
func shardFatal(err error) *httpapi.Error {
	var se *ShardError
	if errors.As(err, &se) && se.Status >= 400 && se.Status < 500 && se.Status != http.StatusTooManyRequests {
		return &httpapi.Error{Status: se.Status, Err: err}
	}
	return &httpapi.Error{Status: http.StatusBadGateway, Err: err}
}

// candidates applies health admission and synopsis pruning, returning the
// shard indices to query. Shards marked unready by the poller get one
// on-demand probe — a shard that recovered between polls is re-admitted
// immediately; one still dead is declared failed without burning the
// query's retry budget on it.
func (c *Coordinator) candidates(ctx context.Context, plan *ScatterPlan, st *queryClusterStats) []int {
	var alive []int
	for i := range c.shards {
		if c.ready[i].Load() == shardUnready {
			pctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
			err := c.shards[i].Ready(pctx)
			cancel()
			if err != nil {
				st.fail(c.shards[i].Name)
				continue
			}
			c.ready[i].Store(shardReady)
		}
		alive = append(alive, i)
	}
	if len(plan.Where) == 0 || len(alive) == 0 {
		return alive
	}
	// Synopsis pruning: drop shards whose zone maps prove zero qualifying
	// rows. Keep at least one alive shard so the query retains a stream
	// to source the header from — the kept shard's own portion pruning
	// skips the raw I/O anyway.
	var kept []int
	for _, i := range alive {
		syn := c.shardSynopsis(ctx, i)
		if syn == nil {
			kept = append(kept, i)
			continue
		}
		ts, ok := syn.Tables[plan.Table]
		if !ok || len(ts.Portions) == 0 {
			kept = append(kept, i)
			continue
		}
		conj, ok := bindConjunction(plan.Where, ts)
		if !ok {
			kept = append(kept, i)
			continue
		}
		if synopsis.SkippableAll(ts.PortionStates(), conj) && !(len(kept) == 0 && i == alive[len(alive)-1]) {
			st.pruned++
			continue
		}
		kept = append(kept, i)
	}
	return kept
}

// executeScatter runs one query across the cluster.
func (c *Coordinator) executeScatter(ctx context.Context, query string) (*scatterResult, error) {
	start := time.Now()
	plan, err := BuildScatterPlan(query)
	if err != nil {
		return nil, &httpapi.Error{Status: http.StatusBadRequest, Err: err}
	}
	st := &queryClusterStats{shardsTotal: len(c.shards)}
	cand := c.candidates(ctx, plan, st)
	if len(cand) == 0 {
		if failed := st.failedShards(); len(failed) > 0 {
			return nil, httpapi.Errorf(http.StatusBadGateway, "cluster: all shards unavailable: %v", failed)
		}
		return nil, httpapi.Errorf(http.StatusBadGateway, "cluster: no shards available")
	}
	var res *scatterResult
	switch plan.Mode {
	case ModeConcat, ModeSortMerge:
		res, err = c.runStreaming(ctx, plan, cand, st)
	default:
		res, err = c.runAggregate(ctx, plan, cand, st)
	}
	if err != nil {
		return nil, err
	}
	res.start = start
	release := res.cleanup
	res.cleanup = func() { release(); c.fold(st) }
	return res, nil
}

// runStreaming executes ModeConcat/ModeSortMerge: open every candidate's
// stream concurrently, then merge them in shard order through buffered
// prefetchers so all shards stay busy while the merge pulls
// single-threaded.
func (c *Coordinator) runStreaming(ctx context.Context, plan *ScatterPlan, cand []int, st *queryClusterStats) (*scatterResult, error) {
	sctx, cancel := context.WithCancel(ctx)
	iters := make([]*shardIter, len(cand))
	primeErrs := make([]error, len(cand))
	var wg sync.WaitGroup
	for j, i := range cand {
		iters[j] = newShardIter(sctx, c.shards[i], plan.PushedSQL,
			c.cfg.retries(), c.cfg.retryBackoff(), c.cfg.ShardTimeout,
			func() { st.retries.Add(1) }, c.breakers[i])
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			primeErrs[j] = iters[j].Prime()
		}(j)
	}
	wg.Wait()

	var inputs []exec.RowIter
	var buffers []*bufferedIter
	names := map[int]string{} // merge-input index -> shard name
	var columns []string
	var firstErr error
	for j := range cand {
		if primeErrs[j] != nil {
			if firstErr == nil {
				firstErr = primeErrs[j]
			}
			st.fail(c.shards[cand[j]].Name)
			continue
		}
		if columns == nil {
			columns = iters[j].Columns()
		}
		names[len(inputs)] = c.shards[cand[j]].Name
		b := newBufferedIter(iters[j])
		buffers = append(buffers, b)
		inputs = append(inputs, b)
	}
	cleanup := func() {
		cancel()
		for _, b := range buffers {
			st.bytes.Add(b.StopWait())
		}
	}
	if len(inputs) == 0 {
		cleanup()
		return nil, shardFatal(firstErr)
	}
	if firstErr != nil && !c.cfg.AllowPartial {
		cleanup()
		return nil, shardFatal(firstErr)
	}

	onErr := func(input int, err error) bool {
		if !c.cfg.AllowPartial {
			return false
		}
		st.fail(names[input])
		return true
	}
	var merged exec.RowIter
	if plan.Mode == ModeSortMerge {
		keys, err := resolveOrder(plan.Order, columns)
		if err != nil {
			cleanup()
			return nil, &httpapi.Error{Status: http.StatusBadRequest, Err: err}
		}
		merged = exec.NewMergeSorted(inputs, keys, plan.Limit, onErr)
	} else {
		merged = exec.NewConcat(inputs, plan.Limit, onErr)
	}
	return &scatterResult{columns: columns, iter: merged, cleanup: cleanup, stats: st, plan: plan}, nil
}

// runAggregate executes ModeAgg/ModeGroupAgg: drain every candidate's
// partial rows concurrently, then re-aggregate in shard order. A shard
// that fails mid-drain is discarded whole — partials are all-or-nothing
// per shard, so a survivor set still merges to the exact answer over the
// shards it covers.
func (c *Coordinator) runAggregate(ctx context.Context, plan *ScatterPlan, cand []int, st *queryClusterStats) (*scatterResult, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type drainResult struct {
		rows [][]storage.Value
		err  error
	}
	results := make([]drainResult, len(cand))
	var wg sync.WaitGroup
	for j, i := range cand {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			it := newShardIter(sctx, c.shards[i], plan.PushedSQL,
				c.cfg.retries(), c.cfg.retryBackoff(), c.cfg.ShardTimeout,
				func() { st.retries.Add(1) }, c.breakers[i])
			defer func() { st.bytes.Add(it.Bytes()); it.Close() }()
			rows, err := exec.DrainRowIter(it)
			results[j] = drainResult{rows: rows, err: err}
		}(j, i)
	}
	wg.Wait()

	var survivors [][][]storage.Value
	var firstErr error
	for j := range cand {
		if results[j].err != nil {
			if firstErr == nil {
				firstErr = results[j].err
			}
			st.fail(c.shards[cand[j]].Name)
			continue
		}
		survivors = append(survivors, results[j].rows)
	}
	if len(survivors) == 0 {
		return nil, shardFatal(firstErr)
	}
	if firstErr != nil && !c.cfg.AllowPartial {
		return nil, shardFatal(firstErr)
	}

	var rows [][]storage.Value
	if plan.Mode == ModeAgg {
		m := exec.NewAggMerger(plan.Specs, plan.SentinelCol)
		for _, shardRows := range survivors {
			for _, r := range shardRows {
				m.Absorb(r)
			}
		}
		rows = [][]storage.Value{m.Result()}
	} else {
		m := exec.NewGroupMerger(plan.KeyCols, plan.Specs)
		for _, shardRows := range survivors {
			for _, r := range shardRows {
				m.Absorb(r)
			}
		}
		rows = m.Rows()
		if len(plan.Order) > 0 {
			keys, err := resolveOrder(plan.Order, plan.Columns)
			if err != nil {
				return nil, &httpapi.Error{Status: http.StatusBadRequest, Err: err}
			}
			exec.SortRows(rows, keys)
		}
		rows = exec.LimitRows(rows, int(plan.Limit))
	}
	return &scatterResult{
		columns: plan.Columns,
		iter:    exec.NewSliceIter(rows),
		cleanup: func() {},
		stats:   st,
		plan:    plan,
	}, nil
}

// resolveOrder binds ORDER BY names to output column indices.
func resolveOrder(order []OrderKey, columns []string) ([]exec.SortKey, error) {
	keys := make([]exec.SortKey, 0, len(order))
	for _, o := range order {
		idx := -1
		for i, name := range columns {
			if name == o.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("cluster: ORDER BY column %q must appear in the select list", o.Name)
		}
		keys = append(keys, exec.SortKey{Index: idx, Desc: o.Desc})
	}
	return keys, nil
}

// planString renders the scatter plan for stats trailers and /explain.
func planString(plan *ScatterPlan, st *queryClusterStats) string {
	return fmt.Sprintf("scatter(%s) shards=%d pruned=%d push=%q",
		plan.Mode, st.shardsTotal, st.pruned, plan.PushedSQL)
}

// ---- front-door backend ----

// query runs a buffered /v1/query: the merged rows are drained before the
// response is written, so the cluster block counts every merged byte.
func (c *Coordinator) query(ctx context.Context, query string) (httpapi.Result, error) {
	res, err := c.executeScatter(ctx, query)
	if err != nil {
		return httpapi.Result{}, err
	}
	rows, err := exec.DrainRowIter(res.iter)
	res.stats.rows.Add(int64(len(rows)))
	res.Close()
	if err != nil {
		return httpapi.Result{}, &httpapi.Error{Status: http.StatusBadGateway, Err: err}
	}
	return httpapi.Result{Columns: res.columns, Rows: rows, Stats: res.Stats()}, nil
}

func (c *Coordinator) queryStream(ctx context.Context, query string) (httpapi.Rows, error) {
	res, err := c.executeScatter(ctx, query)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// explain compiles the scatter plan without executing it.
func (c *Coordinator) explain(_ context.Context, query string) (string, error) {
	plan, err := BuildScatterPlan(query)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("scatter(%s) shards=%d push=%q", plan.Mode, len(c.shards), plan.PushedSQL), nil
}

// tables returns the union of shard table sets.
func (c *Coordinator) tables(ctx context.Context) (any, error) {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
	defer cancel()
	seen := map[string]bool{}
	var any bool
	for _, sc := range c.shards {
		names, err := sc.Tables(ctx)
		if err != nil {
			continue
		}
		any = true
		for _, n := range names {
			seen[n] = true
		}
	}
	if !any {
		return nil, httpapi.Errorf(http.StatusBadGateway, "cluster: no shard answered /tables")
	}
	tables := make([]string, 0, len(seen))
	for n := range seen {
		tables = append(tables, n)
	}
	sort.Strings(tables)
	return map[string][]string{"tables": tables}, nil
}

// schema proxies the first shard that answers; shards of one logical
// dataset share a schema by construction.
func (c *Coordinator) schema(ctx context.Context, name string) (any, error) {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
	defer cancel()
	var lastErr error
	for _, sc := range c.shards {
		var out json.RawMessage
		if err := sc.getJSON(ctx, "/v1/schema?table="+name, &out); err != nil {
			lastErr = err
			continue
		}
		return out, nil
	}
	status := http.StatusBadGateway
	var se *ShardError
	if errors.As(lastErr, &se) && se.Status == http.StatusNotFound {
		status = http.StatusNotFound
	}
	return nil, &httpapi.Error{Status: status, Err: lastErr}
}

type shardStatusJSON struct {
	Shard string `json:"shard"`
	State string `json:"state"`
	// Breaker is the shard's circuit-breaker state ("closed", "open",
	// "half-open"); BreakerOpened counts how often it has opened.
	Breaker       string `json:"breaker"`
	BreakerOpened int64  `json:"breaker_opened,omitempty"`
}

func (c *Coordinator) shardStates() []shardStatusJSON {
	out := make([]shardStatusJSON, len(c.shards))
	for i, sc := range c.shards {
		state := "unknown"
		switch c.ready[i].Load() {
		case shardReady:
			state = "ready"
		case shardUnready:
			state = "unready"
		}
		out[i] = shardStatusJSON{
			Shard:         sc.Name,
			State:         state,
			Breaker:       c.breakers[i].State(),
			BreakerOpened: c.breakers[i].Opened(),
		}
	}
	return out
}

func (c *Coordinator) stats(adm httpapi.Admission) any {
	return struct {
		UptimeSeconds float64                        `json:"uptime_seconds"`
		Mode          string                         `json:"mode"`
		Shards        []shardStatusJSON              `json:"shards"`
		Work          metrics.Snapshot               `json:"work"`
		Server        httpapi.AdmissionStats         `json:"server"`
		Tenants       map[string]httpapi.TenantStats `json:"tenants,omitempty"`
	}{
		UptimeSeconds: time.Since(c.started).Seconds(),
		Mode:          "coordinator",
		Shards:        c.shardStates(),
		Work:          c.work.Snapshot(),
		Server:        adm.Server,
		Tenants:       adm.Tenants,
	}
}

// readiness reports the coordinator ready when every shard admits
// queries. Without a background poller the shards are probed on demand.
func (c *Coordinator) readiness(ctx context.Context) (int, any) {
	if c.cfg.HealthInterval <= 0 {
		c.probeAll(ctx)
	}
	states := c.shardStates()
	for _, s := range states {
		if s.State != "ready" {
			return http.StatusServiceUnavailable, map[string]any{"status": "degraded", "shards": states}
		}
	}
	return http.StatusOK, map[string]any{"status": "ok", "shards": states}
}
