package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nodb"
	"nodb/internal/qos"
	"nodb/internal/server"
)

// redundantTrafficTarget is the acceptance bar: on a 100%-duplicate
// workload, the result cache plus singleflight must cut the modeled cost
// by at least this factor versus re-executing every duplicate.
const redundantTrafficTarget = 5.0

// redundantEnforceRows is the table size above which the target turns
// from a reported number into a hard error; shape tests run far below it.
const redundantEnforceRows = 100_000

// redundantDuplicates is how many times the workload repeats each query.
const redundantDuplicates = 64

// RedundantTraffic measures what the result cache and singleflight
// collapse buy on the worst case they were built for: a workload that is
// 100% duplicates. The same aggregate query runs redundantDuplicates
// times against two engines over the same raw file — one with the result
// cache off (every duplicate re-executes, even if adaptive structures
// make re-execution cheaper than the cold first pass) and one with it on
// (the first execution pays, every duplicate answers from memory with
// zero engine work). Both series report modeled seconds from the work
// counters, so the comparison is hardware-independent like every other
// figure in this suite.
//
// A concurrent burst at the end exercises the singleflight path: fresh
// duplicates arriving while their twin is still executing collapse into
// one execution instead of racing it.
func RedundantTraffic(c Config) (*Report, error) {
	rows := c.scale(200_000)
	const cols = 4
	model := c.model()

	path, err := c.ensureTable("qoscache", rows, cols, 47)
	if err != nil {
		return nil, err
	}
	dir, err := c.dataDir()
	if err != nil {
		return nil, err
	}

	query := "select sum(a1), count(*) from R where a2 >= 10"

	// runWorkload executes the duplicate workload and returns the modeled
	// seconds of the engine work it caused.
	runWorkload := func(cacheBytes int64) (float64, error) {
		db, err := nodb.OpenErr(nodb.Options{
			Policy:           nodb.PartialLoadsV1,
			Workers:          1,
			SplitDir:         filepath.Join(dir, "qoscache_splits"),
			ResultCacheBytes: cacheBytes,
		})
		if err != nil {
			return 0, err
		}
		defer db.Close()
		if err := db.Attach("R", nodb.TableSpec{Path: path}); err != nil {
			return 0, err
		}
		before := db.Work()
		for i := 0; i < redundantDuplicates; i++ {
			if _, err := db.Query(query); err != nil {
				return 0, err
			}
		}
		return model.Seconds(db.Work().Sub(before)), nil
	}

	startUncached := time.Now()
	uncachedSec, err := runWorkload(0)
	if err != nil {
		return nil, err
	}
	wallUncached := time.Since(startUncached)

	// Cached run on a fresh engine plus a concurrent burst of the same
	// query to exercise singleflight (the burst races the cache fill).
	db, err := nodb.OpenErr(nodb.Options{
		Policy:           nodb.PartialLoadsV1,
		Workers:          1,
		SplitDir:         filepath.Join(dir, "qoscache_splits_on"),
		ResultCacheBytes: 64 << 20,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.Attach("R", nodb.TableSpec{Path: path}); err != nil {
		return nil, err
	}
	before := db.Work()
	startCached := time.Now()
	const burst = 8
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = db.QueryContext(context.Background(), query)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := burst; i < redundantDuplicates; i++ {
		if _, err := db.Query(query); err != nil {
			return nil, err
		}
	}
	cachedWork := db.Work().Sub(before)
	cachedSec := model.Seconds(cachedWork)
	wallCached := time.Since(startCached)
	cstats := db.ResultCacheStats()

	speedup := uncachedSec / cachedSec
	notes := []string{
		fmt.Sprintf("%s x %d attrs, %d duplicates of one aggregate (first %d fired concurrently)",
			sizeLabel(rows), cols, redundantDuplicates, burst),
		fmt.Sprintf("cache: hits=%d misses=%d entries=%d bytes=%d; collapsed in flight=%d",
			cstats.Hits, cstats.Misses, cstats.Entries, cstats.Bytes, cachedWork.QueriesCollapsed),
		fmt.Sprintf("speedup: %.1fx modeled (target >= %.0fx); wall-clock %s -> %s",
			speedup, redundantTrafficTarget, wallUncached.Round(time.Millisecond), wallCached.Round(time.Millisecond)),
	}
	if rows >= redundantEnforceRows && speedup < redundantTrafficTarget {
		return nil, fmt.Errorf("redundant-traffic: speedup %.2fx is below the %.0fx target (uncached %s, cached %s)",
			speedup, redundantTrafficTarget, fmtSec(uncachedSec), fmtSec(cachedSec))
	}

	return &Report{
		ID:    "redundant-traffic",
		Title: "Result cache + singleflight on a 100%-duplicate workload",
		XAxis: "workload",
		Series: []Series{
			{Name: "no cache", Points: []Point{{X: 1, Label: fmt.Sprintf("%d duplicates", redundantDuplicates), ModelSec: uncachedSec, Wall: wallUncached}}},
			{Name: "cache+singleflight", Points: []Point{{X: 1, Label: fmt.Sprintf("%d duplicates", redundantDuplicates), ModelSec: cachedSec, Wall: wallCached, Work: cachedWork}}},
		},
		Notes: notes,
	}, nil
}

// tenantIsolationEnforceRows gates the hard latency assertion, like the
// other experiments' enforce thresholds.
const tenantIsolationEnforceRows = 100_000

// tenantLightProbes is how many sequential queries the light tenant runs
// per phase; the p99 is taken over these.
const tenantLightProbes = 40

// TenantIsolation demonstrates per-tenant admission partitioning: a heavy
// tenant saturating the server with full-scan aggregates must not
// meaningfully move a light tenant's p99. Three phases against httptest
// servers over one table: the light tenant alone (its solo p99), the
// light tenant while the heavy tenant saturates a server WITH per-tenant
// slot partitioning, and the same contention on a server WITHOUT
// partitioning (one shared slot pool) for contrast — there the heavy
// tenant's queries occupy every slot and the light tenant spins on 429s.
//
// The acceptance bar is the partitioned phase: light p99 <= max(2x solo
// p99, solo p99 + 250ms), enforced at full experiment scale.
func TenantIsolation(c Config) (*Report, error) {
	rows := c.scale(300_000)
	const cols = 4

	path, err := c.ensureTable("qostenant", rows, cols, 53)
	if err != nil {
		return nil, err
	}
	// The light tenant owns its own (smaller) table, as tenants do: the
	// experiment isolates the serving layer's admission control, not
	// storage-level lock contention on one shared table.
	lightRows := rows / 4
	if lightRows < 10 {
		lightRows = 10
	}
	lightPath, err := c.ensureTable("qostenant_light", lightRows, cols, 59)
	if err != nil {
		return nil, err
	}
	dir, err := c.dataDir()
	if err != nil {
		return nil, err
	}

	tenants := []nodb.TenantConfig{
		{Name: "heavy", Key: "heavy-key", Weight: 1},
		{Name: "light", Key: "light-key", Weight: 1},
	}

	openServer := func(splitSuffix string, partitioned bool) (*nodb.DB, *httptest.Server, error) {
		opts := nodb.Options{
			Policy:   nodb.PartialLoadsV2,
			Workers:  1,
			SplitDir: filepath.Join(dir, "qostenant_splits_"+splitSuffix),
		}
		var reg *qos.Registry
		if partitioned {
			opts.Tenants = tenants
			r, err := qos.NewRegistry(tenants, false)
			if err != nil {
				return nil, nil, err
			}
			reg = r
		}
		db, err := nodb.OpenErr(opts)
		if err != nil {
			return nil, nil, err
		}
		if err := db.Attach("R", nodb.TableSpec{Path: path}); err != nil {
			db.Close()
			return nil, nil, err
		}
		if err := db.Attach("L", nodb.TableSpec{Path: lightPath}); err != nil {
			db.Close()
			return nil, nil, err
		}
		srv := server.New(server.Config{DB: db, MaxInFlight: 4, Tenants: reg})
		srv.MarkReady()
		return db, httptest.NewServer(srv), nil
	}

	post := func(client *http.Client, url, apikey, query string) (int, error) {
		body, _ := json.Marshal(map[string]string{"query": query})
		req, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", apikey)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	lightQuery := "select count(*) from L where a1 < 1000"
	heavyQuery := func(i int) string {
		// Vary the predicate so neither plan shortcuts nor a result cache
		// could ever absorb the load; every request re-scans.
		return fmt.Sprintf("select sum(a1), sum(a2), sum(a3), count(*) from R where a4 >= %d", i%97)
	}

	// lightPhase runs the light tenant's probes sequentially, retrying on
	// 429 (what a real client does), and returns the p99 latency over
	// probes — each latency including any retry spinning.
	lightPhase := func(ts *httptest.Server) (time.Duration, error) {
		client := ts.Client()
		lat := make([]time.Duration, 0, tenantLightProbes)
		for i := 0; i < tenantLightProbes; i++ {
			start := time.Now()
			for {
				code, err := post(client, ts.URL, "light-key", lightQuery)
				if err != nil {
					return 0, err
				}
				if code == http.StatusOK {
					break
				}
				if code != http.StatusTooManyRequests {
					return 0, fmt.Errorf("tenant-isolation: light query got http %d", code)
				}
				time.Sleep(2 * time.Millisecond)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[(len(lat)*99)/100], nil
	}

	// saturate launches heavy-tenant clients hammering the server until
	// stop is closed. 429s are expected (the tenant is over its share) and
	// retried after a short backoff — the Retry-After discipline a real
	// client follows; without it the retry spin itself becomes a CPU
	// denial-of-service that no admission controller can partition.
	saturate := func(ts *httptest.Server, stop chan struct{}, done *sync.WaitGroup) {
		const heavyClients = 8
		for g := 0; g < heavyClients; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				client := ts.Client()
				for i := g; ; i += heavyClients {
					select {
					case <-stop:
						return
					default:
					}
					code, _ := post(client, ts.URL, "heavy-key", heavyQuery(i))
					if code == http.StatusTooManyRequests {
						time.Sleep(5 * time.Millisecond)
					}
				}
			}(g)
		}
	}

	measure := func(partitioned bool, suffix string) (solo, loaded time.Duration, err error) {
		db, ts, err := openServer(suffix, partitioned)
		if err != nil {
			return 0, 0, err
		}
		defer db.Close()
		defer ts.Close()
		// Warm the light tenant's column so its queries measure serving
		// latency, not first-touch loading.
		if code, err := post(ts.Client(), ts.URL, "light-key", lightQuery); err != nil || code != http.StatusOK {
			return 0, 0, fmt.Errorf("tenant-isolation: warmup got http %d (err %v)", code, err)
		}
		solo, err = lightPhase(ts)
		if err != nil {
			return 0, 0, err
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		saturate(ts, stop, &wg)
		// Let the heavy tenant actually occupy its slots before probing.
		time.Sleep(50 * time.Millisecond)
		loaded, err = lightPhase(ts)
		close(stop)
		wg.Wait()
		if err != nil {
			return 0, 0, err
		}
		return solo, loaded, nil
	}

	soloPart, loadedPart, err := measure(true, "part")
	if err != nil {
		return nil, err
	}
	soloShared, loadedShared, err := measure(false, "shared")
	if err != nil {
		return nil, err
	}

	bound := 2 * soloPart
	if floor := soloPart + 250*time.Millisecond; bound < floor {
		bound = floor
	}
	notes := []string{
		fmt.Sprintf("%s x %d attrs; 4 admission slots; heavy tenant: 8 clients of full-scan aggregates; light tenant: %d sequential count(*) probes",
			sizeLabel(rows), cols, tenantLightProbes),
		fmt.Sprintf("partitioned slots: light p99 %s solo -> %s under saturation (bound %s)",
			soloPart.Round(time.Microsecond), loadedPart.Round(time.Microsecond), bound.Round(time.Microsecond)),
		fmt.Sprintf("shared slots (no tenants): light p99 %s solo -> %s under saturation",
			soloShared.Round(time.Microsecond), loadedShared.Round(time.Microsecond)),
	}
	if rows >= tenantIsolationEnforceRows && loadedPart > bound {
		return nil, fmt.Errorf("tenant-isolation: light tenant p99 %s under heavy load exceeds bound %s (solo %s)",
			loadedPart.Round(time.Microsecond), bound.Round(time.Microsecond), soloPart.Round(time.Microsecond))
	}

	point := func(x float64, label string, d time.Duration) Point {
		return Point{X: x, Label: label, ModelSec: d.Seconds(), Wall: d}
	}
	return &Report{
		ID:    "tenant-isolation",
		Title: "Per-tenant admission slots: light-tenant p99 under a saturating heavy tenant",
		XAxis: "phase",
		Series: []Series{
			{Name: "partitioned", Points: []Point{point(1, "solo", soloPart), point(2, "under load", loadedPart)}},
			{Name: "shared pool", Points: []Point{point(1, "solo", soloShared), point(2, "under load", loadedShared)}},
		},
		Notes: notes,
	}, nil
}
