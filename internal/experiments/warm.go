package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"nodb/internal/core"
	"nodb/internal/metrics"
	"nodb/internal/plan"
)

// WarmRestart reproduces the paper's adaptive learning curve across a
// process restart. The whole premise of NoDB is that auxiliary structures
// built as a side effect of queries make later queries approach loaded-
// database speed — but those structures die with the process, so a
// restarted server re-pays the learning curve under live traffic. With a
// cache dir, the structures are snapshotted on close and restored lazily
// on first use, so the curve survives.
//
// Three series over the same query sequence:
//
//   - "initial": a fresh engine with a cache dir — query 1 pays the full
//     raw-file load, the rest run hot (the classic curve).
//   - "warm restart": the engine is closed (snapshotting its state) and
//     reopened on the same cache dir — query 1 deserializes the cached
//     columns instead of re-parsing the raw file.
//   - "cold restart": reopened with no cache dir — query 1 re-pays the
//     full load, exactly like "initial".
//
// The headline number (in the notes): the warm first query lands within
// 2x of the pre-restart steady state, while the cold first query re-pays
// the whole learning cost.
func WarmRestart(c Config) (*Report, error) {
	rows := c.scale(200_000)
	const cols = 8
	const queriesPerPhase = 6
	path, err := c.ensureTable("warm", rows, cols, 11)
	if err != nil {
		return nil, err
	}
	// The default (cold) model: steady-state queries pay internal-store
	// reads at disk speed, restores pay snapshot reads, cold loads pay the
	// raw pass — the three regimes the experiment compares.
	model := c.model()

	cacheDir, err := os.MkdirTemp("", "nodb-warm-cache-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)

	// The query reads two full columns, so its steady state is a real
	// scan, not a sub-millisecond cache lookup.
	query := "select sum(a1), sum(a2) from R"

	runPhase := func(name, cache string) (Series, error) {
		eng := core.NewEngine(core.Options{
			Policy:              plan.PolicyColumnLoads,
			CacheDir:            cache,
			Workers:             c.Workers,
			ChunkSize:           c.ChunkSize,
			DisableRevalidation: true,
		})
		defer eng.Close()
		if err := eng.Attach("R", core.TableSpec{Path: path}); err != nil {
			return Series{}, err
		}
		s := Series{Name: name}
		for q := 1; q <= queriesPerPhase; q++ {
			timer := metrics.StartTimer()
			res, err := eng.Query(query)
			if err != nil {
				return Series{}, fmt.Errorf("%s q%d: %w", name, q, err)
			}
			s.Points = append(s.Points, Point{
				X: float64(q), Label: fmt.Sprintf("Q%d", q),
				ModelSec: model.Seconds(res.Stats.Work),
				Wall:     timer.Elapsed(),
				Work:     res.Stats.Work,
			})
		}
		return s, eng.Close() // snapshot write happens here for cached phases
	}

	initial, err := runPhase("initial", cacheDir)
	if err != nil {
		return nil, err
	}
	warm, err := runPhase("warm restart", cacheDir)
	if err != nil {
		return nil, err
	}
	cold, err := runPhase("cold restart", "")
	if err != nil {
		return nil, err
	}

	steady := initial.Points[len(initial.Points)-1].ModelSec
	warmFirst := warm.Points[0].ModelSec
	coldFirst := cold.Points[0].ModelSec
	ratio := 0.0
	if steady > 0 {
		ratio = warmFirst / steady
	}
	snapBytes := int64(0)
	if entries, err := os.ReadDir(cacheDir); err == nil {
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				snapBytes += info.Size()
			}
		}
	}

	return &Report{
		ID:     "warm-restart",
		Title:  fmt.Sprintf("Warm vs cold restart (%s x %d attrs, %d queries per phase)", sizeLabel(rows), cols, queriesPerPhase),
		XAxis:  "query",
		Series: []Series{initial, warm, cold},
		Notes: []string{
			fmt.Sprintf("pre-restart steady state %.1fms; first query after warm restart %.1fms (%.2fx), after cold restart %.1fms (%.1fx)",
				steady*1000, warmFirst*1000, ratio, coldFirst*1000, coldFirst/steady),
			fmt.Sprintf("snapshot cache: %d bytes in %s (deleted after the run)", snapBytes, filepath.Base(cacheDir)),
			"warm Q1 deserializes the cached columns; cold Q1 re-tokenizes the raw file",
		},
	}, nil
}
