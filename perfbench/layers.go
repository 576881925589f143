package main

// Per-layer metrics of a traced run. Each is a span the benchmark records
// around a public call into one layer, or a delta of the engine's work
// counters. Where a workload's own path does not cross a layer (the
// driver, the server, a refresh), probe measures that layer on the run's
// last engine after the measured phases, so every traced run reports
// every layer.

import (
	"context"
	"fmt"
	"net/url"
	"time"

	"nodb"
	"nodb/internal/scan"
	nsql "nodb/internal/sql"
)

// probeSet is what probe needs from a workload: its last engine, the
// table and file it serves, the workload's query texts, hot queries to
// replay, small queries (about ten rows) whose engine time is short next
// to the driver's, one large projection for the stream path, and the
// server the workload already runs, if any. Expected answers must hold
// for the file as it is when probe runs.
type probeSet struct {
	db     *nodb.DB
	table  string
	file   string
	cols   int
	texts  []query
	hot    []query
	small  []query
	stream query
	srv    *httpServer
}

// probe measures the standalone layer spans and any layer the workload did
// not cross. Its own engine work and allocations are kept out of the
// workload's counters.
func (b *bench) probe(ctx context.Context, p probeSet) error {
	if b.traced == nil {
		return nil
	}
	b.tr = b.traced
	b.probeAlloc, b.probeGC = gcStats()
	nsamples := len(b.samples)
	defer func() { b.samples = b.samples[:nsamples] }()
	b.setLayer("storage.mem_bytes", float64(p.db.MemSize()), "bytes")
	w0 := p.db.Work()
	defer func() { b.probeWork = b.probeWork.Add(p.db.Work().Sub(w0)) }()

	// sql: parse every query text of the workload.
	var parse []float64
	for rep := 0; rep < 20; rep++ {
		for _, q := range p.texts {
			t0 := time.Now()
			if _, err := nsql.Parse(q.sql); err != nil {
				return fmt.Errorf("parse %s: %w", q.sql, err)
			}
			parse = append(parse, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	b.setLayer("sql.parse_us", median(parse), "us")

	// plan: explain every query text against the warmed engine.
	var explain []float64
	for _, q := range p.texts {
		t0 := time.Now()
		if _, err := p.db.ExplainContext(ctx, q.sql); err != nil {
			return fmt.Errorf("explain %s: %w", q.sql, err)
		}
		explain = append(explain, ms(time.Since(t0)))
	}
	b.setLayer("plan.explain_ms", median(explain), "ms")

	// scan: tokenize every column of the workload's file.
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		mbs, err := scanRate(p.file, p.cols)
		if err != nil {
			return err
		}
		rates = append(rates, mbs)
	}
	b.setLayer("scan.mb_per_s", median(rates), "MB/s")

	// catalog: a refresh that finds the file unchanged, unless the
	// workload refreshed appended rows itself.
	if len(b.traced.byName("refresh")) == 0 {
		for rep := 0; rep < 5; rep++ {
			id := b.tr.begin("refresh", 0, 0)
			_, err := p.db.Refresh(p.table)
			b.tr.end(id)
			if err != nil {
				return fmt.Errorf("refresh: %w", err)
			}
		}
	}

	// server: the workload's own server, or one started for the probe.
	if len(b.traced.byName("server")) == 0 || len(b.traced.byName("stream")) == 0 {
		srv := p.srv
		if srv == nil {
			var err error
			if srv, err = startServer(p.db, b.tr, 1); err != nil {
				return err
			}
			defer srv.close()
		}
		for pass := 0; pass < 3; pass++ {
			for _, q := range append(append([]query(nil), p.hot...), p.stream) {
				r, err := b.request(ctx, srv, q)
				b.answered(q, r, err, 0, false)
			}
		}
	}

	// driver: run each small query through database/sql and through
	// nodb.DB on the same engine. database/sql does not expose
	// Rows.Stats, so the direct run's Wall stands for the engine's share
	// of the database/sql span.
	dsn := url.Values{"link": {p.table + "=" + p.file}}.Encode()
	c, err := openSQL(dsn)
	if err != nil {
		return err
	}
	defer c.close()
	var overhead []float64
	for rep := 0; rep < 21; rep++ {
		for _, q := range p.small {
			if rep == 0 { // the first pass loads the columns
				r, err := c.do(ctx, q)
				b.check(verifyReply(q, r, err))
				continue
			}
			// Alternate which path runs first.
			var direct reply
			var derr error
			if rep%2 == 0 {
				direct, derr = directQuery(ctx, c.eng, q)
			}
			id := b.tr.begin("driver", 0, 0)
			t0 := time.Now()
			r, err := c.do(ctx, q)
			d := time.Since(t0)
			b.tr.end(id)
			if rep%2 == 1 {
				direct, derr = directQuery(ctx, c.eng, q)
			}
			b.check(verifyReply(q, r, err))
			b.check(verifyReply(q, direct, derr))
			b.tr.add("engine", id, 0, t0, t0.Add(direct.wall))
			overhead = append(overhead, ms(d-direct.wall))
		}
	}
	b.setLayer("driver.overhead_ms", median(overhead), "ms")

	// exec: when no query of the workload ran hot, time its hot queries
	// on this unbudgeted engine.
	for rep := 0; rep < 6 && !b.hasHot(); rep++ {
		for _, q := range p.hot {
			r, err := directQuery(ctx, c.eng, q)
			if b.check(verifyReply(q, r, err)) && rep > 0 {
				b.probeHot = append(b.probeHot, ms(r.wall))
			}
		}
	}
	return nil
}

func verifyReply(q query, r reply, err error) error {
	if err != nil {
		return err
	}
	return verify(q, r)
}

// scanRate tokenizes cols columns of file once and returns MB/s.
func scanRate(file string, cols int) (float64, error) {
	s, err := scan.Open(file, scan.Options{SkipHeader: true})
	if err != nil {
		return 0, err
	}
	idx := make([]int, cols)
	for i := range idx {
		idx[i] = i
	}
	t0 := time.Now()
	if err := s.ScanColumns(idx, func(int64, []scan.FieldRef) error { return nil }, nil); err != nil {
		return 0, fmt.Errorf("scan %s: %w", file, err)
	}
	return float64(s.Size()) / 1e6 / time.Since(t0).Seconds(), nil
}

// request sends q to srv inside a client span named after its path.
func (b *bench) request(ctx context.Context, srv *httpServer, q query) (reply, error) {
	name := "request"
	if q.class == "stream" {
		name = "stream"
	}
	req := b.tr.request()
	id := b.tr.begin(name, 0, req)
	rep, err := srv.do(ctx, q, b.tr, id, req)
	b.tr.end(id)
	if id != 0 && err == nil && q.class == "stream" {
		b.streamBytes.Add(rep.bytes)
	}
	return rep, err
}

// hasHot reports whether a query of the workload read no raw or snapshot
// bytes.
func (b *bench) hasHot() bool {
	for _, s := range b.samples {
		if s.work.RawBytesRead == 0 && s.work.SnapshotBytesRead == 0 && s.class != "stream" {
			return true
		}
	}
	return false
}

// finishLayers derives the remaining per-layer metrics from the spans,
// the per-query samples and the engine work of the run.
func (b *bench) finishLayers() {
	tr := b.traced
	self := tr.selfTimes()
	w := b.work.Sub(b.probeWork)

	var loads, hots []float64
	var loadMS, loadRaw float64
	queries := len(b.samples)
	for _, s := range b.samples {
		switch {
		case s.work.RawBytesRead > 0:
			loads = append(loads, s.wall)
			loadMS += s.wall
			loadRaw += float64(s.work.RawBytesRead)
		case s.work.SnapshotBytesRead == 0 && s.class != "stream":
			hots = append(hots, s.wall)
		}
	}
	perQ := func(n int64) float64 { return float64(n) / float64(max(queries, 1)) }
	ratio := func(name, base string, hit, miss int64) {
		b.setLayer(name, float64(hit)/float64(hit+miss), "ratio")
		b.setLayer(base, float64(hit+miss), "count")
	}

	b.setLayer("bench.queries", float64(queries), "count")
	b.setLayer("server.overhead_ms", median(self["server"]), "ms")
	b.setLayer("server.transport_ms", median(self["request"]), "ms")
	var streamS float64
	for _, d := range tr.byName("stream") {
		streamS += d / 1e3
	}
	b.setLayer("server.stream_mb_per_s", float64(b.streamBytes.Load())/1e6/streamS, "MB/s")
	b.setLayer("core.load_query_ms", median(loads), "ms")
	if len(hots) == 0 {
		// No query of the workload ran hot; use the probe's hot runs.
		hots = b.probeHot
	}
	b.setLayer("exec.hot_query_ms", median(hots), "ms")
	b.setLayer("scan.raw_bytes_read", perQ(w.RawBytesRead), "bytes/query")
	b.setLayer("scan.rows_tokenized", perQ(w.RowsTokenized), "rows/query")
	b.setLayer("scan.values_parsed", perQ(w.ValuesParsed), "values/query")
	ratio("posmap.hit_ratio", "posmap.lookups", w.PosMapHits, w.PosMapMisses)
	ratio("loader.cache_hit_ratio", "loader.cache_lookups", w.CacheHits, w.CacheMisses)
	b.setLayer("loader.ms_per_raw_mb", loadMS/(loadRaw/1e6), "ms/MB")
	b.setLayer("catalog.attach_ms", median(tr.byName("attach")), "ms")
	refreshes := tr.byName("refresh")
	b.setLayer("catalog.refresh_ms", median(refreshes), "ms")
	b.setLayer("catalog.tail_rows_appended", float64(w.TailRowsAppended)/float64(max(b.refreshes, 1)), "rows/refresh")
	b.setLayer("govern.evictions", perQ(w.Evictions), "count/query")
	b.setLayer("govern.evicted_bytes", perQ(w.EvictedBytes), "bytes/query")
	b.setLayer("govern.used_peak_bytes", float64(b.usedMax), "bytes")
	b.setLayer("snapshot.bytes_written", perQ(w.SnapshotBytesWritten), "bytes/query")
	b.setLayer("snapshot.bytes_read", perQ(w.SnapshotBytesRead), "bytes/query")
	ratio("snapshot.hit_ratio", "snapshot.lookups", w.SnapshotHits, w.SnapshotMisses)
	b.setLayer("snapshot.spills", perQ(w.SnapshotSpills), "count/query")
	b.setLayer("runtime.alloc_bytes_per_query", perQ(int64(b.probeAlloc-b.alloc0)), "bytes/query")
	b.setLayer("runtime.gc_cycles", perQ(int64(b.probeGC-b.gc0)), "count/query")
	over := 100 * (median(b.unitTraced)/median(b.unitPlain) - 1)
	b.setLayer("trace.overhead_pct", over, "%")
	b.note("tracing overhead %.2f%%: median unit %.3f ms traced (n=%d) vs %.3f ms untraced (n=%d)",
		over, median(b.unitTraced), len(b.unitTraced), median(b.unitPlain), len(b.unitPlain))
	for _, name := range []string{"attach", "refresh", "request", "stream", "server", "server.stream", "engine", "driver"} {
		if st := self[name]; len(st) > 0 {
			b.note("span %-8s n=%-5d self p50 %.3f ms", name, len(st), median(st))
		}
	}
}
