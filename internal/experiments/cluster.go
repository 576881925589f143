package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"nodb"
	"nodb/internal/cluster"
	"nodb/internal/csvgen"
	"nodb/internal/metrics"
	"nodb/internal/server"
)

// clusterScalingTarget is the acceptance bar for scatter-gather: at the
// default experiment scale, the 3-shard topology must answer the cold
// full-scan aggregate workload at least this much faster than one shard
// holding the whole table.
const clusterScalingTarget = 2.0

// clusterScalingEnforceRows is the table size above which the target
// turns from a reported number into a hard error; shape tests run far
// below it.
const clusterScalingEnforceRows = 200_000

// ClusterScaling measures scatter-gather speedup over an in-process
// cluster: for each topology (1, 2, 3 shards) the table is split into
// disjoint contiguous row ranges with csvgen's shard mode, each shard is
// served by its own single-worker nodbd engine behind httptest, and a
// coordinator fans a cold full-scan aggregate workload out with
// partial-aggregate pushdown.
//
// The workload touches each attribute for the first time (one aggregate
// per column), so every query pays the in-situ tokenize-and-parse cost
// over the shard's slice of the raw file — exactly the work sharding
// divides. Aggregates push down, so the coordinator merges one partial
// row per shard and adds no data-volume bottleneck.
//
// All shards share this process, so — as everywhere else in this suite —
// the cluster's response time is recovered through the cost model: each
// shard's measured work counters are modeled independently and the
// topology's response time is the slowest shard's, since on real cluster
// hardware the shards execute concurrently. Wall-clock per topology is
// reported alongside for reference (on a many-core machine it shows the
// same shape; on a single core it cannot).
func ClusterScaling(c Config) (*Report, error) {
	rows := c.scale(400_000)
	const cols = 4
	model := c.model()

	dir, err := c.dataDir()
	if err != nil {
		return nil, err
	}

	workload := make([]string, cols)
	for i := range workload {
		workload[i] = fmt.Sprintf("select sum(a%d), count(*) from R", i+1)
	}

	// runTopology returns the modeled cluster response time (slowest
	// shard), the summed work delta, and the measured wall-clock.
	runTopology := func(n int) (float64, metrics.Snapshot, time.Duration, error) {
		fail := func(err error) (float64, metrics.Snapshot, time.Duration, error) {
			return 0, metrics.Snapshot{}, 0, err
		}
		var shardURLs []string
		var dbs []*nodb.DB
		var closers []func()
		defer func() {
			for _, cl := range closers {
				cl()
			}
		}()
		for i := 1; i <= n; i++ {
			path := filepath.Join(dir, fmt.Sprintf("cluster_%dx%d_s41_shard%d_of%d.csv", rows, cols, i, n))
			if err := csvgen.EnsureFile(path, csvgen.Spec{
				Rows: rows, Cols: cols, Seed: 41,
				ShardIndex: i, ShardCount: n,
			}); err != nil {
				return fail(err)
			}
			db := nodb.Open(nodb.Options{
				Policy:   nodb.PartialLoadsV2,
				Workers:  1,
				SplitDir: filepath.Join(dir, fmt.Sprintf("cluster_splits_%d_of_%d", i, n)),
			})
			if err := db.Attach("R", nodb.TableSpec{Path: path}); err != nil {
				db.Close()
				return fail(err)
			}
			srv := server.New(server.Config{DB: db})
			srv.MarkReady()
			ts := httptest.NewServer(srv)
			closers = append(closers, ts.Close, func() { db.Close() })
			dbs = append(dbs, db)
			shardURLs = append(shardURLs, ts.URL)
		}
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Shards: shardURLs})
		if err != nil {
			return fail(err)
		}
		defer coord.Close()
		cts := httptest.NewServer(coord)
		defer cts.Close()

		before := make([]metrics.Snapshot, n)
		for i, db := range dbs {
			before[i] = db.Work()
		}
		start := time.Now()
		for _, q := range workload {
			body, _ := json.Marshal(map[string]string{"query": q})
			resp, err := http.Post(cts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				return fail(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fail(fmt.Errorf("cluster-scaling %d shards %q: http %d: %s", n, q, resp.StatusCode, b))
			}
		}
		wall := time.Since(start)

		var slowest float64
		var total metrics.Snapshot
		for i, db := range dbs {
			delta := db.Work().Sub(before[i])
			if sec := model.Seconds(delta); sec > slowest {
				slowest = sec
			}
			total = total.Add(delta)
		}
		return slowest, total, wall, nil
	}

	s := Series{Name: "scatter-gather"}
	modeled := make(map[int]float64)
	walls := make(map[int]time.Duration)
	for _, n := range []int{1, 2, 3} {
		sec, work, wall, err := runTopology(n)
		if err != nil {
			return nil, err
		}
		modeled[n] = sec
		walls[n] = wall
		s.Points = append(s.Points, Point{
			X: float64(n), Label: fmt.Sprintf("%d shard(s)", n),
			ModelSec: sec, Wall: wall, Work: work,
		})
	}

	speedup2 := modeled[1] / modeled[2]
	speedup3 := modeled[1] / modeled[3]
	notes := []string{
		fmt.Sprintf("%s x %d attrs, cold first-touch aggregate per attribute; shard engines Workers=1", sizeLabel(rows), cols),
		"response time = slowest shard's modeled time (shards run concurrently on cluster hardware)",
		fmt.Sprintf("2 shards: %.2fx, 3 shards: %.2fx (target at 3 shards: >= %.1fx)", speedup2, speedup3, clusterScalingTarget),
		fmt.Sprintf("wall-clock on this host: 1 shard %s, 2 shards %s, 3 shards %s",
			walls[1].Round(time.Millisecond), walls[2].Round(time.Millisecond), walls[3].Round(time.Millisecond)),
	}
	if rows >= clusterScalingEnforceRows && speedup3 < clusterScalingTarget {
		return nil, fmt.Errorf("cluster-scaling: 3-shard speedup %.2fx is below the %.1fx target (1 shard %s, 3 shards %s)",
			speedup3, clusterScalingTarget, fmtSec(modeled[1]), fmtSec(modeled[3]))
	}

	return &Report{
		ID:     "cluster-scaling",
		Title:  "Scatter-gather cluster: cold full-scan workload vs shard count",
		XAxis:  "shards",
		Series: []Series{s},
		Notes:  notes,
	}, nil
}
