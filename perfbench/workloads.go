package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nodb"
)

// coldConfig sizes cold-adapt and over-budget: a wide table of unique
// random integers and a fixed sequence of Q2 queries per episode.
type coldConfig struct {
	rows, cols  int
	queries     int // per episode
	minEpisodes int
	setupOpens  int // extra open/close cycles per episode, sampled for setup_s
}

var coldAdaptConfig = coldConfig{rows: 1_000_000, cols: 8, queries: 40, minEpisodes: 4, setupOpens: 5}

// overBudgetConfig keeps an episode near four seconds on a 2-CPU machine.
var overBudgetConfig = coldConfig{rows: 100_000, cols: 8, queries: 40, minEpisodes: 3, setupOpens: 5}

// episode is what one fresh engine did over one pass of the sequence.
type episode struct {
	setup, dataToQuery, sequence time.Duration
	storeRatio                   float64
	work                         nodb.WorkSnapshot
}

// driftSequence is the paper's Fig. 3/4 shape: 10%-selective Q2 queries
// whose attribute pair drifts every five queries, so each new block loads
// one more column. A query that touches a column for the first time in
// the sequence is in class "load", every other one in class "hot".
func driftSequence(t *table, name string, rng *rand.Rand, n int) []query {
	rows := int64(t.rows())
	width := rows / 10
	seen := map[int]bool{}
	var seq []query
	for i := 0; i < n; i++ {
		k := i / 5
		p, a := k%len(t.vals), (k+1)%len(t.vals)
		lo := rng.Int64N(rows - width + 1)
		q := t.q2(name, p, a, lo, lo+width)
		q.class = "hot"
		if !seen[p] || !seen[a] {
			q.class = "load"
		}
		seen[p], seen[a] = true, true
		seq = append(seq, q)
	}
	return seq
}

// smallQueries select about ten rows of a wide table, so that their
// engine time is short next to a client path's overhead.
func smallQueries(t *table, name string) []query {
	return []query{t.project("proj", name, 0, 1, 0, 10), t.project("proj", name, 2, 3, 100, 110)}
}

// randomQ2 returns n 10%-selective Q2 queries over random attribute pairs.
func randomQ2(t *table, name string, rng *rand.Rand, n int) []query {
	rows := int64(t.rows())
	width := rows / 10
	var seq []query
	for i := 0; i < n; i++ {
		p := rng.IntN(len(t.vals))
		a := (p + 1 + rng.IntN(len(t.vals)-1)) % len(t.vals)
		lo := rng.Int64N(rows - width + 1)
		seq = append(seq, t.q2(name, p, a, lo, lo+width))
	}
	return seq
}

// repeat runs one until the run's seconds are spent and at least min
// times; it tells one when the call is the last, so that the caller can
// probe its engine before closing it.
func (b *bench) repeat(min int, one func(i int, last bool) error) error {
	start := time.Now()
	var prev time.Duration
	for i := 0; ; i++ {
		last := i+1 >= min && time.Since(start)+prev >= time.Duration(b.seconds*float64(time.Second))
		t0 := time.Now()
		if err := one(i, last); err != nil {
			return err
		}
		prev = time.Since(t0)
		if last {
			return nil
		}
	}
}

// runEpisodes repeats episodes; each is a unit of the tracing overhead.
func (b *bench) runEpisodes(min int, one func(i int, last bool) (episode, error)) ([]episode, error) {
	var eps []episode
	err := b.repeat(min, func(i int, last bool) error {
		done := b.unit(i)
		ep, err := one(i, last)
		if err != nil {
			return err
		}
		done(ep.sequence)
		eps = append(eps, ep)
		return nil
	})
	return eps, err
}

// episodeMetrics sets the metrics every episodic workload reports.
// setups and dtq hold samples taken outside the episodes.
func (b *bench) episodeMetrics(eps []episode, setups, dtq []float64) {
	var seq, ratio []float64
	var total time.Duration
	queries := 0
	for _, e := range eps {
		setups = append(setups, e.setup.Seconds())
		dtq = append(dtq, ms(e.dataToQuery))
		seq = append(seq, e.sequence.Seconds())
		ratio = append(ratio, e.storeRatio)
		total += e.sequence
	}
	for _, l := range b.lat {
		queries += len(l)
	}
	b.set("setup_s", median(setups), "s")
	b.set("data_to_query_ms", median(dtq), "ms")
	b.set("sequence_s", median(seq), "s")
	b.set("qps", float64(queries)/total.Seconds(), "1/s")
	b.set("store_bytes_per_raw_byte", median(ratio), "ratio")
	b.note("%d episodes, %d setup and %d data-to-query samples, one sequential client", len(eps), len(setups), len(dtq))
}

// coldAdapt is the paper's scenario: each episode opens a fresh engine
// through the database/sql driver and runs the drifting sequence.
func coldAdapt(b *bench) error {
	cfg := coldAdaptConfig
	ctx := context.Background()
	rng := newRand(b.seed, 1)
	t := wideTable(rng, cfg.rows, cfg.cols)
	file := filepath.Join(b.dir, "wide.csv")
	raw, err := t.createCSV(file)
	if err != nil {
		return err
	}
	seq := driftSequence(t, "t", rng, cfg.queries)
	dsn := url.Values{"link": {"t=" + file}}.Encode()
	b.note("cold-adapt: %d rows x %d cols, %.1f MB; %d queries per episode", cfg.rows, cfg.cols, float64(raw)/1e6, len(seq))

	var setups []float64
	eps, err := b.runEpisodes(cfg.minEpisodes, func(i int, last bool) (episode, error) {
		for k := 0; k < cfg.setupOpens; k++ {
			t0 := time.Now()
			id := b.tr.begin("attach", 0, 0)
			c, err := openSQL(dsn)
			b.tr.end(id)
			if b.check(err) {
				setups = append(setups, time.Since(t0).Seconds())
				b.closeDB(c.eng)
				c.close()
			}
		}
		ep, c, err := b.coldEpisode(ctx, dsn, seq, raw)
		if err != nil {
			return ep, err
		}
		defer c.close()
		defer b.closeDB(c.eng)
		if last {
			hot := seq[len(seq)-3:]
			err = b.probe(ctx, probeSet{db: c.eng, table: "t", file: file, cols: cfg.cols,
				texts: seq, hot: hot, small: smallQueries(t, "t"), stream: t.project("stream", "t", 0, 1, 0, int64(cfg.rows/20))})
		}
		return ep, err
	})
	if err != nil {
		return err
	}
	b.episodeMetrics(eps, setups, nil)
	b.latencyMetrics("hot", "hot")
	all := append(append([]float64(nil), b.lat["hot"]...), b.lat["load"]...)
	b.note("all %d queries, loads included (not a metric): p50 %.3f ms, p90 %.3f ms", len(all), median(all), quantile(all, 0.9))
	return nil
}

// coldEpisode opens a fresh engine from dsn and runs seq through
// database/sql with one sequential client.
func (b *bench) coldEpisode(ctx context.Context, dsn string, seq []query, raw int64) (episode, *sqlClient, error) {
	var ep episode
	t0 := time.Now()
	id := b.tr.begin("attach", 0, 0)
	c, err := openSQL(dsn)
	b.tr.end(id)
	if err != nil {
		return ep, nil, fmt.Errorf("open %s: %w", dsn, err)
	}
	ep.setup = time.Since(t0)
	ts := time.Now()
	for i, q := range seq {
		qs := time.Now()
		rep, err := c.do(ctx, q)
		lat := time.Since(qs)
		b.sampleUsed(c.eng)
		if b.answered(q, rep, err, lat, true) && i == 0 {
			ep.dataToQuery = time.Since(t0)
		}
	}
	ep.sequence = time.Since(ts)
	ep.storeRatio = storeRatio(c.eng, "", raw)
	ep.work = c.eng.Work()
	return ep, c, nil
}

// workingSet runs seq once on an engine without a budget and returns the
// bytes of adaptive state it holds afterwards.
func workingSet(ctx context.Context, file string, seq []query) (int64, error) {
	db := nodb.Open(nodb.Options{})
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: file}); err != nil {
		return 0, err
	}
	for _, q := range seq {
		if _, err := directQuery(ctx, db, q); err != nil {
			return 0, err
		}
	}
	return db.MemStats().Used, nil
}

// overBudget runs random Q2 queries over all attributes against nodb.DB
// with a memory budget of a third of the working set the sequence touches
// and a cache directory, so evicted columns spill and are re-admitted.
func overBudget(b *bench) error {
	cfg := overBudgetConfig
	ctx := context.Background()
	rng := newRand(b.seed, 2)
	t := wideTable(rng, cfg.rows, cfg.cols)
	file := filepath.Join(b.dir, "wide.csv")
	raw, err := t.createCSV(file)
	if err != nil {
		return err
	}
	seq := randomQ2(t, "t", rng, cfg.queries)
	ws, err := workingSet(ctx, file, seq)
	if err != nil {
		return err
	}
	budget := ws / 3
	b.note("over-budget: %d rows x %d cols, %.1f MB; working set %.1f MB, budget %.1f MB; %d queries per episode",
		cfg.rows, cfg.cols, float64(raw)/1e6, float64(ws)/1e6, float64(budget)/1e6, len(seq))

	var setups []float64
	var dtqs []float64
	extra := 0
	// Each extra set-up also answers the first query, on its own empty
	// cache directory, to sample data_to_query_ms.
	openFirst := func() {
		dir := filepath.Join(b.dir, fmt.Sprintf("cache-extra-%d", extra))
		extra++
		t0 := time.Now()
		db, err := b.openBudgeted(file, budget, dir)
		if !b.check(err) {
			return
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep, err := directQuery(ctx, db, seq[0])
		if b.answered(seq[0], rep, err, 0, false) {
			dtqs = append(dtqs, ms(time.Since(t0)))
		}
		b.closeDB(db)
		os.RemoveAll(dir)
	}
	eps, err := b.runEpisodes(cfg.minEpisodes, func(i int, last bool) (episode, error) {
		for k := 0; k < cfg.setupOpens; k++ {
			openFirst()
		}
		ep, db, err := b.budgetEpisode(ctx, file, budget, filepath.Join(b.dir, fmt.Sprintf("cache-%d", i)), seq, raw)
		if err != nil {
			return ep, err
		}
		defer b.closeDB(db)
		if last {
			err = b.probe(ctx, probeSet{db: db, table: "t", file: file, cols: cfg.cols,
				texts: seq, hot: seq[len(seq)-3:], small: smallQueries(t, "t"), stream: t.project("stream", "t", 0, 1, 0, int64(cfg.rows/20))})
		}
		return ep, err
	})
	if err != nil {
		return err
	}
	b.episodeMetrics(eps, setups, dtqs)
	b.latencyMetrics("q2", "q2")
	return nil
}

func (b *bench) openBudgeted(file string, budget int64, cacheDir string) (*nodb.DB, error) {
	db := nodb.Open(nodb.Options{MemoryBudget: budget, CacheDir: cacheDir})
	id := b.tr.begin("attach", 0, 0)
	err := db.Attach("t", nodb.TableSpec{Path: file})
	b.tr.end(id)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("attach %s: %w", file, err)
	}
	return db, nil
}

// budgetEpisode opens a fresh budgeted engine with an empty cache
// directory and runs seq in-process with one sequential client.
func (b *bench) budgetEpisode(ctx context.Context, file string, budget int64, cacheDir string, seq []query, raw int64) (episode, *nodb.DB, error) {
	var ep episode
	t0 := time.Now()
	db, err := b.openBudgeted(file, budget, cacheDir)
	if err != nil {
		return ep, nil, err
	}
	ep.setup = time.Since(t0)
	ts := time.Now()
	for i, q := range seq {
		qs := time.Now()
		rep, err := directQuery(ctx, db, q)
		lat := time.Since(qs)
		b.sampleUsed(db)
		if b.answered(q, rep, err, lat, true) && i == 0 {
			ep.dataToQuery = time.Since(t0)
		}
	}
	ep.sequence = time.Since(ts)
	ep.storeRatio = storeRatio(db, cacheDir, raw)
	ep.work = db.Work()
	return ep, db, nil
}

// hotConfig sizes serve-hot.
type hotConfig struct {
	rows, cols int
	minRounds  int
	coldStarts int     // extra cold starts per round, for data_to_query_ms
	rate       float64 // open-loop requests per second
	openN      int     // open-loop requests per round
	closedN    int     // closed-loop requests per round
	closedRun  int     // closed-loop requests per rate sample, a multiple of the mix
	conns      int     // open-loop client connections, at most the CPU count
}

var serveHotConfig = hotConfig{rows: 500_000, cols: 8, minRounds: 3, coldStarts: 2, rate: 20, openN: 50, closedN: 400, closedRun: 20, conns: 2}

// The serve-hot open-loop mix per ten requests: six Q2 aggregates, two
// ~1k-row projections and two ~50k-row NDJSON streams. Streams are the
// slowest class and a fifth of the mix, so the p90 tail falls in their
// middle.
var hotMix = []string{"q2", "q2", "q2", "q2", "q2", "q2", "proj", "proj", "stream", "stream"}

// The closed loop, which gives qps, sends the request/response part of
// the mix in the same 3:1 proportion from one client. Two clients on a
// 2-CPU machine, or a stream, whose server encodes while the client
// decodes, need both CPUs at once, and then the rate followed how much of
// the second CPU the host lent: a host shift that moved sequence_s by 11%
// moved a rate with streams by 29%. Streams stay in the tail and in
// server.stream_mb_per_s.
var closedMix = []string{"q2", "q2", "q2", "proj"}

// serveHot serves a warmed, in-memory table over loopback HTTP. Every
// round sets up a fresh engine and server and runs the same phases on it:
// a fixed sequence, an open loop at a fixed rate for latency, and a
// closed loop for throughput.
func serveHot(b *bench) error {
	cfg := serveHotConfig
	ctx := context.Background()
	rng := newRand(b.seed, 3)
	t := wideTable(rng, cfg.rows, cfg.cols)
	file := filepath.Join(b.dir, "wide.csv")
	raw, err := t.createCSV(file)
	if err != nil {
		return err
	}
	rows := int64(cfg.rows)
	pools := map[string][]query{"q2": randomQ2(t, "t", rng, 60)}
	for i := 0; i < 20; i++ {
		p := rng.IntN(cfg.cols)
		lo := rng.Int64N(rows - 1000)
		pools["proj"] = append(pools["proj"], t.project("proj", "t", p, (p+1)%cfg.cols, lo, lo+1000))
	}
	for i := 0; i < 6; i++ {
		p := rng.IntN(cfg.cols)
		lo := rng.Int64N(rows - rows/10)
		pools["stream"] = append(pools["stream"], t.project("stream", "t", p, (p+3)%cfg.cols, lo, lo+rows/10))
	}
	deck := func(mix []string, n int) []query {
		out := make([]query, n)
		for i := range out {
			pool := pools[mix[i%len(mix)]]
			out[i] = pool[rng.IntN(len(pool))]
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	// Each closed-loop run is a deck of its own, so that every rate sample
	// has the exact mix.
	openDeck := deck(hotMix, cfg.openN)
	var closedDeck []query
	for len(closedDeck) < cfg.closedN {
		closedDeck = append(closedDeck, deck(closedMix, cfg.closedRun)...)
	}
	var warm []query
	for c := 0; c < cfg.cols; c += 2 {
		warm = append(warm, t.q2("t", c, (c+1)%cfg.cols, 0, rows/10))
	}
	seq := pools["q2"][:40]
	b.note("serve-hot: %d rows x %d cols, %.1f MB, fits in memory; per round an open loop of %d requests at %g req/s from %d clients and a closed loop of %d Q2 and projection requests from 1 client",
		cfg.rows, cfg.cols, float64(raw)/1e6, cfg.openN, cfg.rate, cfg.conns, cfg.closedN)

	// coldStart opens an engine and server, attaches the file and answers
	// the first warm-up query.
	var dtqs []float64
	coldStart := func() (*nodb.DB, *httpServer, error) {
		t0 := time.Now()
		db := nodb.Open(nodb.Options{})
		srv, err := startServer(db, b.traced, cfg.conns)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		id := b.tr.begin("attach", 0, 0)
		err = srv.attach(ctx, "t", file)
		b.tr.end(id)
		if err == nil {
			var rep reply
			rep, err = b.request(ctx, srv, warm[0])
			if b.answered(warm[0], rep, err, 0, false) {
				dtqs = append(dtqs, ms(time.Since(t0)))
			}
		}
		if err != nil {
			srv.close()
			db.Close()
		}
		return db, srv, err
	}

	var setups, seqs, late, ratios, rates []float64
	err = b.repeat(cfg.minRounds, func(round int, last bool) error {
		b.tr = b.traced
		for k := 0; k < cfg.coldStarts; k++ {
			db, srv, err := coldStart()
			if err != nil {
				return err
			}
			srv.close()
			b.closeDB(db)
		}
		t0 := time.Now()
		db, srv, err := coldStart()
		if err != nil {
			return err
		}
		defer b.closeDB(db)
		defer srv.close()
		for _, q := range warm[1:] {
			rep, err := b.request(ctx, srv, q)
			b.answered(q, rep, err, 0, false)
		}
		setups = append(setups, time.Since(t0).Seconds())

		// The fixed sequence, one sequential client.
		for pass := 0; pass < 2; pass++ {
			done := b.unit(pass)
			t0 := time.Now()
			for _, q := range seq {
				rep, err := b.request(ctx, srv, q)
				b.answered(q, rep, err, 0, false)
			}
			d := time.Since(t0)
			done(d)
			seqs = append(seqs, d.Seconds())
		}
		b.tr = b.traced

		_, l, _ := b.drive(ctx, srv, openDeck, cfg.rate, cfg.conns, db)
		late = append(late, l...)
		// The closed loop is timed in runs of closedRun requests, so that
		// qps is a median over the whole run, not a mean a slow spell of
		// the machine can drag.
		answered, closedTime := 0, time.Duration(0)
		for i := 0; i < len(closedDeck); i += cfg.closedRun {
			n, _, d := b.drive(ctx, srv, closedDeck[i:min(i+cfg.closedRun, len(closedDeck))], 0, 1, db)
			rates = append(rates, float64(n)/d.Seconds())
			answered += n
			closedTime += d
		}
		b.note("round %d closed loop %.1f req/s", round, float64(answered)/closedTime.Seconds())
		ratios = append(ratios, storeRatio(db, "", raw))
		if !last {
			return nil
		}
		return b.probe(ctx, probeSet{db: db, table: "t", file: file, cols: cfg.cols, srv: srv,
			texts: append(append([]query(nil), seq...), pools["proj"][0], pools["stream"][0]),
			hot:   seq[:3], small: smallQueries(t, "t"), stream: pools["stream"][0]})
	})
	if err != nil {
		return err
	}
	b.set("setup_s", median(setups), "s")
	b.set("data_to_query_ms", median(dtqs), "ms")
	b.set("sequence_s", median(seqs), "s")
	b.set("qps", median(rates), "1/s")
	b.set("store_bytes_per_raw_byte", median(ratios), "ratio")
	b.latencyMetrics("q2", "q2", "proj", "stream")
	for _, c := range []string{"q2", "proj", "stream"} {
		b.note("open loop class %-6s n=%-4d p50 %.3f ms", c, len(b.lat[c]), median(b.lat[c]))
	}
	b.note("qps is the median of %d closed-loop runs of %d requests; their quartiles %.1f %.1f %.1f req/s",
		len(rates), cfg.closedRun, quantile(rates, 0.25), median(rates), quantile(rates, 0.75))
	b.note("%d rounds; open loop generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms",
		len(setups), quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1))
	return nil
}

// drive sends reqs from conns goroutines, each taking the next request
// once its previous one is answered. With rate > 0 it is an open loop:
// request i is due rate⁻¹·i after the start, its latency runs from then,
// so a stall also counts against the requests queued behind it, and it
// is kept under its class. With rate 0 it is a closed loop. drive returns
// how many requests were answered correctly, how late each was sent in
// ms, and the loop's wall time.
func (b *bench) drive(ctx context.Context, srv *httpServer, reqs []query, rate float64, conns int, db *nodb.DB) (int, []float64, time.Duration) {
	type result struct {
		rep      reply
		err      error
		lat      time.Duration
		lateness float64
	}
	res := make([]result, len(reqs))
	var period time.Duration
	if rate > 0 {
		period = time.Duration(float64(time.Second) / rate)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(i) * period)
				time.Sleep(time.Until(due))
				sent := time.Now()
				rep, err := b.request(ctx, srv, reqs[i])
				lat := time.Since(due)
				err = verifyReply(reqs[i], rep, err)
				rep.rows = nil // keep only what the per-layer metrics need
				res[i] = result{rep: rep, err: err, lat: lat, lateness: ms(sent.Sub(due))}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	answered := 0
	late := make([]float64, len(res))
	for i, r := range res {
		if b.tally(reqs[i], r.rep, r.err, r.lat, rate > 0) {
			answered++
		}
		late[i] = r.lateness
	}
	b.sampleUsed(db)
	return answered, late, wall
}

// followConfig sizes follow-append.
type followConfig struct {
	rows      int // initial log rows
	batch     int // rows per append
	cycles    int // appends per round
	minRounds int
	windows   int // recent-window queries per cycle after the first answer
}

var followAppendConfig = followConfig{rows: 500_000, batch: 5000, cycles: 40, minRounds: 3, windows: 4}

// followAppend grows a log-shaped CSV in fixed batches. Each round writes
// the initial log afresh, sets up a fresh engine and server, and runs the
// same append cycles: write and flush a batch, fold it in through
// POST /v1/tables/{name}/refresh (no follow timer), then ask for the new
// rows' window, more recent windows and a whole-table aggregate.
func followAppend(b *bench) error {
	cfg := followAppendConfig
	ctx := context.Background()
	rng := newRand(b.seed, 6)
	full := &table{names: []string{"ts", "user", "bytes", "status"}}
	full.vals = logRows(rng, cfg.rows+cfg.cycles*cfg.batch, 1_600_000_000)
	ts := full.vals[0]
	type cycle struct {
		from, to int
		seq      []query
	}
	cycles := make([]cycle, cfg.cycles)
	for c := range cycles {
		from := cfg.rows + c*cfg.batch
		to := from + cfg.batch
		t := full.prefix(to)
		seq := []query{t.logWindow("log", ts[from])}
		for w := 0; w < cfg.windows; w++ {
			seq = append(seq, t.logWindow("log", ts[to-1-rng.IntN(50_000)]))
		}
		cycles[c] = cycle{from, to, append(seq, t.logTotal("log"))}
	}
	initial := full.prefix(cfg.rows)
	warm := []query{initial.logTotal("log"), initial.logWindow("log", ts[cfg.rows-cfg.batch])}
	file := filepath.Join(b.dir, "log.csv")
	b.note("follow-append: %d initial rows, at least %d rounds of %d appends of %d rows; per cycle 1 refresh, %d window queries, 1 total",
		cfg.rows, cfg.minRounds, cfg.cycles, cfg.batch, cfg.windows+1)

	var setups, dtqs, seqs, ratios []float64
	queries := 0
	var busy time.Duration
	err := b.repeat(cfg.minRounds, func(round int, last bool) error {
		b.tr = b.traced
		if _, err := initial.createCSV(file); err != nil {
			return err
		}
		t0 := time.Now()
		db := nodb.Open(nodb.Options{})
		defer b.closeDB(db)
		srv, err := startServer(db, b.traced, 1)
		if err != nil {
			return err
		}
		defer srv.close()
		id := b.tr.begin("attach", 0, 0)
		err = srv.attach(ctx, "log", file)
		b.tr.end(id)
		if err != nil {
			return err
		}
		for _, q := range warm {
			rep, err := b.request(ctx, srv, q)
			b.answered(q, rep, err, 0, false)
		}
		setups = append(setups, time.Since(t0).Seconds())

		for c, cy := range cycles {
			done := b.unit(c)
			if err := full.prefix(cy.to).appendCSV(file, cy.from); err != nil {
				return err
			}
			avail := time.Now()
			id := b.tr.begin("refresh", 0, 0)
			added, err := srv.refresh(ctx, "log")
			b.tr.end(id)
			b.refreshes++
			if err == nil && added != int64(cfg.batch) {
				err = fmt.Errorf("refresh folded in %d rows, want %d", added, cfg.batch)
			}
			b.check(err)
			for i, q := range cy.seq {
				qs := time.Now()
				rep, err := b.request(ctx, srv, q)
				lat := time.Since(qs)
				if b.answered(q, rep, err, lat, true) && i == 0 {
					dtqs = append(dtqs, ms(time.Since(avail)))
				}
			}
			d := time.Since(avail)
			done(d)
			busy += d
			queries += len(cy.seq)
			seqs = append(seqs, d.Seconds())
			b.sampleUsed(db)
		}
		st, err := os.Stat(file)
		if err != nil {
			return err
		}
		ratios = append(ratios, storeRatio(db, "", st.Size()))
		if !last {
			return nil
		}
		b.tr = b.traced
		n := full.rows()
		hot := []query{full.logWindow("log", ts[n-1000]), full.logWindow("log", ts[n-20000]), full.logTotal("log")}
		small := []query{full.project("proj", "log", 0, 2, ts[n-10], ts[n-1]+1), full.project("proj", "log", 0, 1, ts[n/2], ts[n/2+10])}
		return b.probe(ctx, probeSet{db: db, table: "log", file: file, cols: 4, srv: srv, texts: cycles[0].seq,
			hot: hot, small: small, stream: full.project("stream", "log", 0, 2, ts[n-n/10], ts[n-1]+1)})
	})
	if err != nil {
		return err
	}
	b.set("setup_s", median(setups), "s")
	b.set("data_to_query_ms", median(dtqs), "ms")
	b.set("sequence_s", median(seqs), "s")
	b.set("qps", float64(queries)/busy.Seconds(), "1/s")
	b.set("store_bytes_per_raw_byte", median(ratios), "ratio")
	b.latencyMetrics("window", "total")
	b.note("%d rounds, %d append cycles", len(setups), len(seqs))
	return nil
}
