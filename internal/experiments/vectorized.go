package experiments

import (
	"fmt"
	"time"

	"nodb/internal/core"
	"nodb/internal/plan"
)

// vectorizedTarget is the acceptance bar for the batch pipeline: on a hot
// full-scan aggregate the vectorized operators must beat the
// row-at-a-time path by at least this factor. Enforced at experiment
// scale (the default nodbbench run), where the measurement is stable.
const vectorizedTarget = 1.5

// vectorizedEnforceRows is the table size above which the speedup target
// turns from a reported number into a hard error. Shape tests run at a
// few thousand rows, where per-query fixed costs drown the execution
// delta; the default experiment scale is far above this line.
const vectorizedEnforceRows = 200_000

// Vectorized measures the batch-operator execution core against the
// row-at-a-time path it replaced. Both engines fully load the table first
// (ColumnLoads + a warm-up query), so every measured query runs entirely
// from memory: the delta is pure execution machinery — per-batch column
// slices, selection vectors and fused aggregate loops versus per-row
// Value slices, interface dispatch and per-row predicate evaluation.
//
// The x axis sweeps predicate selectivity; the headline point is the full
// scan (100%), where the aggregate consumes every row and the pipeline's
// advantage is largest. At default scale the experiment fails unless the
// full-scan speedup reaches vectorizedTarget.
func Vectorized(c Config) (*Report, error) {
	rows := c.scale(1_000_000)
	const cols = 4

	path, err := c.ensureTable("vectorized", rows, cols, 73)
	if err != nil {
		return nil, err
	}

	workers := c.Workers
	if workers == 0 {
		workers = 1
	}
	mkEngine := func(disable bool) (*core.Engine, error) {
		eng := core.NewEngine(core.Options{
			Policy:            plan.PolicyColumnLoads,
			Workers:           workers,
			ChunkSize:         c.ChunkSize,
			DisableVectorExec: disable,
		})
		if err := eng.Attach("R", core.TableSpec{Path: path}); err != nil {
			eng.Close()
			return nil, err
		}
		// Warm-up: load every column the workload touches, so the sweep
		// below never touches the raw file.
		if _, err := eng.Query("select sum(a1), sum(a2) from R"); err != nil {
			eng.Close()
			return nil, err
		}
		return eng, nil
	}

	selectivities := []float64{0.10, 0.50, 1.00}
	series := []Series{{Name: "batch pipeline"}, {Name: "row-at-a-time"}}
	for si, disable := range []bool{false, true} {
		eng, err := mkEngine(disable)
		if err != nil {
			return nil, err
		}
		for _, sel := range selectivities {
			// a2 is a permutation of 0..rows-1: a half-open upper bound at
			// sel*rows qualifies exactly that fraction of rows.
			q := fmt.Sprintf("select sum(a1), min(a2), count(*) from R where a2 < %d", int64(float64(rows)*sel))
			// Best-of-3 wall clock: hot in-memory queries are fast enough
			// that a single run is at the mercy of the scheduler.
			var best time.Duration
			var p Point
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				res, err := eng.Query(q)
				elapsed := time.Since(start)
				if err != nil {
					eng.Close()
					return nil, fmt.Errorf("%s sel=%.2f: %w", series[si].Name, sel, err)
				}
				if res.Stats.Work.RawBytesRead != 0 {
					eng.Close()
					return nil, fmt.Errorf("%s sel=%.2f: read %d raw bytes on a hot table", series[si].Name, sel, res.Stats.Work.RawBytesRead)
				}
				if rep == 0 || elapsed < best {
					best = elapsed
					p = Point{
						X: sel * 100, Label: fmt.Sprintf("%g%%", sel*100),
						ModelSec: elapsed.Seconds(), Wall: elapsed,
						Work: res.Stats.Work,
					}
				}
			}
			series[si].Points = append(series[si].Points, p)
		}
		eng.Close()
	}

	vec, row := series[0], series[1]
	notes := []string{
		fmt.Sprintf("%s x %d attrs, fully loaded before measurement; best of 3 runs, wall-clock", sizeLabel(rows), cols),
	}
	var fullScan float64
	for i, sel := range selectivities {
		ratio := 0.0
		if vec.Points[i].ModelSec > 0 {
			ratio = row.Points[i].ModelSec / vec.Points[i].ModelSec
		}
		if sel == 1.0 {
			fullScan = ratio
		}
		notes = append(notes, fmt.Sprintf("selectivity %g%%: row-at-a-time %s vs batch %s (%.1fx)",
			sel*100, fmtSec(row.Points[i].ModelSec), fmtSec(vec.Points[i].ModelSec), ratio))
	}
	notes = append(notes, fmt.Sprintf("full-scan target: >= %.1fx", vectorizedTarget))
	if rows >= vectorizedEnforceRows && fullScan < vectorizedTarget {
		return nil, fmt.Errorf("vectorized: full-scan speedup %.2fx is below the %.1fx target (row %s, batch %s)",
			fullScan, vectorizedTarget, fmtSec(row.Points[len(row.Points)-1].ModelSec), fmtSec(vec.Points[len(vec.Points)-1].ModelSec))
	}

	return &Report{
		ID:     "vectorized",
		Title:  "Vectorized batch execution vs row-at-a-time, hot full-scan aggregates (wall-clock)",
		XAxis:  "selectivity",
		Series: []Series{vec, row},
		Notes:  notes,
	}, nil
}
