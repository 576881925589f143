package main

import (
	"context"
	"fmt"
	"net/url"
	"path/filepath"
	"testing"
)

func newTestBench(t *testing.T) *bench {
	return &bench{seed: 7, dir: t.TempDir(), lat: map[string][]float64{}, out: map[string]metric{}, layer: map[string]metric{}}
}

// With one client and a fixed seed, every work counter of an episode
// repeats exactly on a fresh engine.
func TestEpisodeCountersRepeat(t *testing.T) {
	ctx := context.Background()
	b := newTestBench(t)
	rng := newRand(b.seed, 1)
	tab := wideTable(rng, 20_000, 6)
	file := filepath.Join(b.dir, "wide.csv")
	raw, err := tab.createCSV(file)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("cold-adapt", func(t *testing.T) {
		seq := driftSequence(tab, "t", rng, 30)
		dsn := url.Values{"link": {"t=" + file}}.Encode()
		var runs []episode
		for i := 0; i < 3; i++ {
			ep, c, err := b.coldEpisode(ctx, dsn, seq, raw)
			if err != nil {
				t.Fatal(err)
			}
			b.closeDB(c.eng)
			c.close()
			runs = append(runs, ep)
		}
		compareWork(t, b, runs)
	})

	t.Run("over-budget", func(t *testing.T) {
		seq := randomQ2(tab, "t", rng, 30)
		ws, err := workingSet(ctx, file, seq)
		if err != nil {
			t.Fatal(err)
		}
		var runs []episode
		for i := 0; i < 3; i++ {
			ep, db, err := b.budgetEpisode(ctx, file, ws/3, filepath.Join(b.dir, fmt.Sprintf("cache-%d", i)), seq, raw)
			if err != nil {
				t.Fatal(err)
			}
			b.closeDB(db)
			runs = append(runs, ep)
		}
		if runs[0].work.Evictions == 0 || runs[0].work.SnapshotBytesWritten == 0 {
			t.Fatalf("budget %d B never evicted or spilled: %+v", ws/3, runs[0].work)
		}
		compareWork(t, b, runs)
	})
}

func compareWork(t *testing.T, b *bench, runs []episode) {
	t.Helper()
	if b.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", b.failed, b.attempted, b.errs)
	}
	if runs[0].work.RawBytesRead == 0 {
		t.Fatal("episode read no raw bytes")
	}
	for i, r := range runs[1:] {
		if r.work != runs[0].work {
			t.Errorf("run %d work differs:\n got %+v\nwant %+v", i+1, r.work, runs[0].work)
		}
	}
}

// The oracle's answers agree with values worked out by hand.
func TestOracle(t *testing.T) {
	tab := &table{names: []string{"a1", "a2"}, vals: [][]int64{{3, 0, 2, 1}, {10, 20, 30, 40}}}
	q := tab.q2("t", 0, 1, 1, 3) // rows with a1 in [1, 3): a1=2 (a2=30), a1=1 (a2=40)
	if want := (answer{rows: 1, ints: []int64{3}, flts: []float64{35}}); !want.matches(q.want) {
		t.Errorf("q2 = %v, want %v", q.want, want)
	}
	if err := verify(q, reply{rows: [][]string{{"3", "35"}}}); err != nil {
		t.Error(err)
	}
	if err := verify(q, reply{rows: [][]string{{"4", "35"}}}); err == nil {
		t.Error("a wrong sum passed")
	}
	p := tab.project("proj", "t", 0, 1, 1, 3)
	if err := verify(p, reply{rows: [][]string{{"1", "40"}, {"2", "30"}}}); err != nil {
		t.Errorf("rows in another order: %v", err)
	}
	if err := verify(p, reply{rows: [][]string{{"1", "40"}}}); err == nil {
		t.Error("a missing row passed")
	}
	if cells, err := intArray([]byte("[12,-3]"), nil); err != nil || len(cells) != 2 || cells[1] != -3 {
		t.Errorf("intArray = %v, %v", cells, err)
	}
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if pct, _ := tail(xs); pct != c.pct {
			t.Errorf("tail of %d samples at p%g, want p%g", c.n, pct, c.pct)
		}
	}
}
