// Command perfbench is the repository's benchmark. It runs one named
// workload against nodb's public entry points — the database/sql driver,
// the HTTP server over loopback and nodb.DB in-process — checks every
// answer against an oracle computed from the generated inputs, and prints
// one JSON object as the last line of its output:
//
//	perfbench --workload cold-adapt --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, taken from spans the benchmark records
// around its calls into each layer and from the engine's work counters.
// Inputs depend only on --seed. Generated files live under --dir and are
// removed before the command exits. See DESIGN.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"nodb"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is the state of one run: its arguments, the operation tally, the
// per-class latencies of the measured phases and the metrics to print.
type bench struct {
	seed    uint64
	seconds float64
	dir     string

	// tr records spans when the run is traced and tracing is switched on;
	// traced keeps the tracer while an untraced stretch of a traced run
	// has tr set to nil.
	tr     *tracer
	traced *tracer

	attempted, failed int
	errs              []string

	lat       map[string][]float64 // request class -> latencies, ms
	samples   []sample             // per-query records, traced runs only
	work      nodb.WorkSnapshot    // engine work summed over closed DBs
	usedMax   int64                // highest governor Used seen after a request
	refreshes int                  // refresh requests of the workload

	out   map[string]metric // end-to-end metrics
	layer map[string]metric // per-layer metrics, traced runs only

	// Traced runs alternate traced and untraced units of work; these are
	// the units' wall times, for the tracing overhead.
	unitTraced, unitPlain []float64

	streamBytes        atomic.Int64      // NDJSON bytes of traced stream requests
	probeWork          nodb.WorkSnapshot // engine work done by probe
	probeHot           []float64         // engine walls of the probe's hot queries, ms
	alloc0, probeAlloc uint64            // runtime.MemStats.TotalAlloc at start and at probe
	gc0, probeGC       uint32            // runtime.MemStats.NumGC at start and at probe
}

// sample is one answered query as the per-layer metrics see it.
type sample struct {
	class string
	wall  float64 // engine wall (or client span when hidden), ms
	work  nodb.WorkSnapshot
}

func (b *bench) set(name string, v float64, unit string) { put(b.out, name, v, unit) }

// setLayer records a per-layer metric.
func (b *bench) setLayer(name string, v float64, unit string) { put(b.layer, name, v, unit) }

func put(m map[string]metric, name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// unit starts the i-th repeated unit of a workload (an episode, a cycle,
// a pass over a sequence). A traced run traces the even units only, so
// that it can compare traced and untraced units; done records the unit's
// wall time on the matching side.
func (b *bench) unit(i int) (done func(time.Duration)) {
	b.tr = nil
	if b.traced != nil && i%2 == 0 {
		b.tr = b.traced
	}
	traced := b.tr != nil
	return func(d time.Duration) {
		if traced {
			b.unitTraced = append(b.unitTraced, ms(d))
		} else {
			b.unitPlain = append(b.unitPlain, ms(d))
		}
	}
}

// note prints a line of context ahead of the result.
func (b *bench) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// check tallies one operation. err is its failure, if any: an engine
// error, a refusal or a wrong answer.
func (b *bench) check(err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.errs) < 5 {
		b.errs = append(b.errs, err.Error())
	}
	return false
}

// answered tallies a query and, when it was right, keeps its latency
// under its class. The latency is measured by the caller: from when the
// request was due for open-loop phases, from when it was sent otherwise.
func (b *bench) answered(q query, rep reply, err error, latency time.Duration, keep bool) bool {
	return b.tally(q, rep, verifyReply(q, rep, err), latency, keep)
}

// tally is answered for a reply the caller has already verified; err is
// the request's error or the verification's.
func (b *bench) tally(q query, rep reply, err error, latency time.Duration, keep bool) bool {
	if !b.check(err) {
		return false
	}
	if keep {
		b.lat[q.class] = append(b.lat[q.class], ms(latency))
	}
	if b.traced != nil {
		w := ms(rep.wall)
		if rep.wall == 0 {
			w = ms(latency)
		}
		b.samples = append(b.samples, sample{class: q.class, wall: w, work: rep.work})
	}
	return true
}

// closeDB adds db's work to the run's tally and closes it.
func (b *bench) closeDB(db *nodb.DB) {
	b.work = b.work.Add(db.Work())
	if err := db.Close(); err != nil {
		b.check(fmt.Errorf("close: %w", err))
	}
}

// sampleUsed records the governor's Used bytes after a request.
func (b *bench) sampleUsed(db *nodb.DB) {
	if b.traced != nil {
		b.usedMax = max(b.usedMax, db.MemStats().Used)
	}
}

// storeRatio is the engine's adaptive state in memory plus the bytes
// under its cache directory, per raw byte attached.
func storeRatio(db *nodb.DB, cacheDir string, raw int64) float64 {
	return float64(db.MemSize()+dirBytes(cacheDir)) / float64(raw)
}

func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// latencyMetrics sets query_p50_ms from the p50Class latencies and
// query_tail_ms from the latencies of tailClasses together.
func (b *bench) latencyMetrics(p50Class string, tailClasses ...string) {
	b.set("query_p50_ms", median(b.lat[p50Class]), "ms")
	var all []float64
	for _, c := range tailClasses {
		all = append(all, b.lat[c]...)
	}
	pct, v := tail(all)
	b.set("query_tail_ms", v, "ms")
	b.note("query_p50_ms over %d %q requests; query_tail_ms is p%g of %d %v requests",
		len(b.lat[p50Class]), p50Class, pct, len(all), tailClasses)
}

var workloads = map[string]func(*bench) error{
	"cold-adapt":    coldAdapt,
	"serve-hot":     serveHot,
	"follow-append": followAppend,
	"over-budget":   overBudget,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: cold-adapt, serve-hot, follow-append, over-budget")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
		dir     = flag.String("dir", ".bench_build/perfbench", "directory for generated inputs and traces")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(mustMkdir(*dir), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		seed: *seed, seconds: *seconds, dir: work,
		lat: map[string][]float64{}, out: map[string]metric{}, layer: map[string]metric{},
	}
	if *trace == 1 {
		b.traced = newTracer()
		b.tr = b.traced
	}
	b.alloc0, b.gc0 = gcStats()
	err = run(b)
	if err == nil && b.traced != nil {
		b.finishLayers()
		err = b.traced.write(filepath.Join(*dir, fmt.Sprintf("trace-%s-%d.json", *name, *seed)))
	}
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	printed := b.out
	if b.traced != nil {
		// End-to-end figures of a traced run include tracing; show them
		// for reference only.
		for _, n := range sortedKeys(b.out) {
			b.note("traced %-25s %14.6g %s", n, b.out[n].Value, b.out[n].Unit)
		}
		printed = b.layer
	}
	for _, n := range sortedKeys(printed) {
		b.note("%-32s %14.6g %s", n, printed[n].Value, printed[n].Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   printed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// gcStats returns allocated bytes and completed GC cycles so far.
func gcStats() (uint64, uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.NumGC
}

func sortedKeys(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
