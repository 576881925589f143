package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"nodb/internal/core"
	"nodb/internal/csvgen"
	"nodb/internal/metrics"
	"nodb/internal/plan"
)

// SynopsisSweep measures the scan synopsis' selectivity curve: after one
// learning pass (which builds per-portion zone maps as a free byproduct),
// selective queries on a clustered attribute skip the portions whose
// value bounds exclude the predicate — reading a handful of portions
// instead of re-tokenizing the whole file. The baseline engine is
// identical except the synopsis is disabled, so every query re-pays the
// full raw-file pass (the pre-PR behavior).
//
// The workload models the common log-file shape: attribute a1 is
// monotone (a timestamp or sequence id), so value ranges cluster into
// byte ranges. Both engines run PolicyPartialV1 — the selective loading
// operator with no retention — which isolates the cost of the raw scan
// itself: any speedup is portion skipping, not caching.
//
// The headline number (asserted in tests and recorded in BENCH_pr5.json
// by CI): a 1%-selectivity query after one prior pass runs >= 3x faster
// than the full re-scan.
func SynopsisSweep(c Config) (*Report, error) {
	rows := c.scale(400_000)
	const cols = 6
	model := c.model()

	dir, err := c.dataDir()
	if err != nil {
		return nil, err
	}
	// a1 is sequential (clustered); the rest are the paper's shuffled
	// unique ints.
	path := filepath.Join(dir, fmt.Sprintf("synsweep_%dx%d.csv", rows, cols))
	spec := csvgen.Spec{Rows: rows, Cols: cols, Seed: 41, ColSpecs: []csvgen.ColSpec{{Kind: csvgen.SequentialInts}}}
	if err := csvgen.EnsureFile(path, spec); err != nil {
		return nil, err
	}

	// Aim for a few dozen portions regardless of scale so the sweep is
	// meaningful at test sizes too (Config.ChunkSize still wins).
	chunk := c.ChunkSize
	if chunk == 0 {
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		chunk = int(st.Size() / 32)
		if chunk < 4<<10 {
			chunk = 4 << 10
		}
		if chunk > 1<<20 {
			chunk = 1 << 20
		}
	}

	// Both engines run sequential scans (unless Config overrides): the
	// baseline then reads the file exactly once per query — the true
	// pre-PR behavior — instead of also paying a per-query layout
	// pre-pass, and the measured ratio isolates portion skipping.
	workers := c.Workers
	if workers == 0 {
		workers = 1
	}
	mkEngine := func(disable bool) (*core.Engine, error) {
		eng := core.NewEngine(core.Options{
			Policy:              plan.PolicyPartialV1,
			Workers:             workers,
			ChunkSize:           chunk,
			DisableSynopsis:     disable,
			DisableRevalidation: true,
		})
		if err := eng.Attach("R", core.TableSpec{Path: path}); err != nil {
			eng.Close()
			return nil, err
		}
		// The learning pass: a wide query over (a1, a3). With the synopsis
		// enabled it leaves behind the portion layout and zone maps; the
		// baseline leaves nothing, by construction.
		if _, err := eng.Query("select sum(a3) from R where a1 >= 0"); err != nil {
			eng.Close()
			return nil, err
		}
		return eng, nil
	}

	selectivities := []float64{0.01, 0.05, 0.25, 1.0}
	series := []Series{{Name: "synopsis skip"}, {Name: "full re-scan"}}
	for si, disable := range []bool{false, true} {
		eng, err := mkEngine(disable)
		if err != nil {
			return nil, err
		}
		for _, sel := range selectivities {
			width := int64(float64(rows) * sel)
			if width < 1 {
				width = 1
			}
			lo := int64(rows) / 3 // mid-file window: interior portions skip
			if lo+width > int64(rows) {
				lo = int64(rows) - width
			}
			q := fmt.Sprintf("select sum(a3) from R where a1 >= %d and a1 < %d", lo, lo+width)
			timer := metrics.StartTimer()
			res, err := eng.Query(q)
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("%s sel=%.2f: %w", series[si].Name, sel, err)
			}
			series[si].Points = append(series[si].Points, Point{
				X: sel * 100, Label: fmt.Sprintf("%g%%", sel*100),
				ModelSec: model.Seconds(res.Stats.Work),
				Wall:     timer.Elapsed(),
				Work:     res.Stats.Work,
			})
		}
		eng.Close()
	}

	syn, full := series[0], series[1]
	notes := []string{
		fmt.Sprintf("%s rows, chunk %d bytes; a1 clustered (log-file shape); 1%% query skipped %d portions",
			sizeLabel(rows), chunk, syn.Points[0].Work.PortionsSkipped),
	}
	for i, sel := range selectivities {
		ratio := 0.0
		if syn.Points[i].ModelSec > 0 {
			ratio = full.Points[i].ModelSec / syn.Points[i].ModelSec
		}
		notes = append(notes, fmt.Sprintf("selectivity %g%%: full re-scan %s vs synopsis %s (%.1fx)",
			sel*100, fmtSec(full.Points[i].ModelSec), fmtSec(syn.Points[i].ModelSec), ratio))
	}

	return &Report{
		ID:     "synopsis",
		Title:  "Adaptive scan synopses: selective query cost after one learning pass",
		XAxis:  "selectivity",
		Series: []Series{syn, full},
		Notes:  notes,
	}, nil
}
