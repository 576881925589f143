package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"nodb/internal/core"
	"nodb/internal/metrics"
	"nodb/internal/plan"
)

// Concurrency measures the query-server scenario the paper's single-user
// experiments stop short of: one shared engine, N parallel clients firing
// Q2-style queries through QueryContext. A fixed workload (32 queries) is
// split across the clients, so ideal scaling halves the wall-clock each
// time the client count doubles; contention on the table's load locks and
// the shared adaptive store is what keeps it from doing so. Reported
// seconds are measured wall-clock for the whole workload (the cost model
// has no contention term).
func Concurrency(cfg Config) (*Report, error) {
	rows := cfg.scale(100000)
	path, err := cfg.ensureTable("conc", rows, 4, cfg.seed())
	if err != nil {
		return nil, err
	}

	const totalQueries = 32
	clientCounts := []int{1, 2, 4, 8}

	rep := &Report{
		ID:    "conc",
		Title: fmt.Sprintf("Concurrent clients: %d-query workload over one shared engine (%d rows)", totalQueries, rows),
		XAxis: "clients",
		Notes: []string{
			"wall-clock seconds for the whole workload (no cost model: contention is what is being measured)",
			"queries are 10%-selective Q2 aggregations; the first per column pays the adaptive load",
		},
	}

	for _, pol := range []plan.Policy{plan.PolicyColumnLoads, plan.PolicyPartialV2, plan.PolicyAuto} {
		series := Series{Name: pol.String()}
		for _, clients := range clientCounts {
			e := core.NewEngine(core.Options{Policy: pol, DisableRevalidation: true})
			if err := e.Attach("R", core.TableSpec{Path: path}); err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(cfg.seed()))
			queries := make([]string, totalQueries)
			for i := range queries {
				c1, c2 := i%3, i%3+1
				lo1, hi1, lo2, hi2 := q2Range(rng, rows, 0.1)
				queries[i], _, _, _ = q2Query(c1, c2, lo1, hi1, lo2, hi2)
			}

			before := e.Counters().Snapshot()
			timer := metrics.StartTimer()
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < totalQueries; i += clients {
						if _, err := e.QueryContext(context.Background(), queries[i]); err != nil {
							errCh <- err
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				if err != nil {
					return nil, err
				}
			}
			wall := timer.Elapsed()
			series.Points = append(series.Points, Point{
				X:        float64(clients),
				Label:    fmt.Sprintf("%d", clients),
				ModelSec: wall.Seconds(),
				Wall:     wall,
				Work:     e.Counters().Snapshot().Sub(before),
			})
		}
		rep.Series = append(rep.Series, series)
	}
	return rep, nil
}
