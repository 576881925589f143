package main

// Input generation and the answer oracle. Both work only on the values the
// benchmark generates itself and share no code with the engine: the
// generator writes CSV text with strconv, and every expected answer is
// computed by a plain loop over the generated values.

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
)

// table is a generated integer table held column-major: vals[c][r] is the
// value of attribute c+1 in row r.
type table struct {
	names []string
	vals  [][]int64
}

func (t *table) rows() int { return len(t.vals[0]) }

// newRand returns the generator for one input stream of one seed.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// wideTable generates rows × cols unique random integers: every column is
// an independent permutation of 0..rows-1, the paper's "unique integers
// randomly distributed in the columns".
func wideTable(rng *rand.Rand, rows, cols int) *table {
	t := &table{}
	for c := 0; c < cols; c++ {
		col := make([]int64, rows)
		for i := range col {
			col[i] = int64(i)
		}
		rng.Shuffle(rows, func(i, j int) { col[i], col[j] = col[j], col[i] })
		t.names = append(t.names, fmt.Sprintf("a%d", c+1))
		t.vals = append(t.vals, col)
	}
	return t
}

// logRows generates n rows of an access log, column-major: a strictly
// increasing ts, then user, bytes and status. ts starts after next.
func logRows(rng *rand.Rand, n int, next int64) [][]int64 {
	out := make([][]int64, 4)
	for i := range out {
		out[i] = make([]int64, n)
	}
	for r := 0; r < n; r++ {
		next += 1 + rng.Int64N(3)
		out[0][r] = next
		out[1][r] = rng.Int64N(1000)
		out[2][r] = rng.Int64N(100000)
		out[3][r] = 200 + 100*rng.Int64N(4)
	}
	return out
}

// prefix returns a view of the first n rows of t.
func (t *table) prefix(n int) *table {
	p := &table{names: t.names}
	for _, c := range t.vals {
		p.vals = append(p.vals, c[:n])
	}
	return p
}

// writeCSV writes the header and rows [from, to) of t to w.
func (t *table) writeCSV(w *bufio.Writer, header bool, from, to int) error {
	if header {
		for c, n := range t.names {
			if c > 0 {
				w.WriteByte(',')
			}
			w.WriteString(n)
		}
		w.WriteByte('\n')
	}
	var buf []byte
	for r := from; r < to; r++ {
		buf = buf[:0]
		for c := range t.vals {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, t.vals[c][r], 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// createCSV writes all of t to a new file at path and returns its size.
func (t *table) createCSV(path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := t.writeCSV(w, true, 0, t.rows()); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// appendCSV appends rows [from, t.rows()) of t to the file at path and
// flushes them to the file before returning.
func (t *table) appendCSV(path string, from int) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := t.writeCSV(w, false, from, t.rows()); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// answer is an expected or observed result, reduced to what the oracle
// compares: the row count, the integer cells summed over all rows and a
// checksum of the rows that does not depend on their order. Aggregate
// queries return one row, so their cells are compared exactly; avg cells
// are floats and compared with a relative tolerance.
type answer struct {
	rows  int64
	ints  []int64   // single-row results: the integer cells
	flts  []float64 // single-row results: the float cells
	check uint64    // multi-row results: order-free row checksum
}

func (a answer) String() string {
	return fmt.Sprintf("rows=%d ints=%v floats=%v check=%x", a.rows, a.ints, a.flts, a.check)
}

// rowHash mixes one row of integer cells (splitmix64 finaliser).
func rowHash(cells []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range cells {
		h ^= uint64(v)
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// matches reports whether got equals want: counts, integer cells and
// checksum exactly, float cells within a relative 1e-9.
func (want answer) matches(got answer) bool {
	if got.rows != want.rows || got.check != want.check ||
		len(got.ints) != len(want.ints) || len(got.flts) != len(want.flts) {
		return false
	}
	for i := range want.ints {
		if got.ints[i] != want.ints[i] {
			return false
		}
	}
	for i := range want.flts {
		d := math.Abs(got.flts[i] - want.flts[i])
		if d > 1e-9*math.Max(1, math.Abs(want.flts[i])) {
			return false
		}
	}
	return true
}

// query is one statement of a workload with its expected answer.
type query struct {
	class string // request class, for per-class latency
	sql   string
	want  answer
}

// q2 is the paper's Q2 shape: a sum and an average over the rows whose
// predicate attribute p lies in [lo, hi); attributes are 0-based.
func (t *table) q2(name string, p, agg int, lo, hi int64) query {
	var n, sum, aggSum int64
	pv, av := t.vals[p], t.vals[agg]
	for r, v := range pv {
		if v >= lo && v < hi {
			n++
			sum += v
			aggSum += av[r]
		}
	}
	avg := 0.0
	if n > 0 {
		avg = float64(aggSum) / float64(n)
	}
	return query{
		class: "q2",
		sql: fmt.Sprintf("select sum(%s), avg(%s) from %s where %s >= %d and %s < %d",
			t.names[p], t.names[agg], name, t.names[p], lo, t.names[p], hi),
		want: answer{rows: 1, ints: []int64{sum}, flts: []float64{avg}},
	}
}

// project selects attributes p and q of the rows whose attribute p lies
// in [lo, hi).
func (t *table) project(class, name string, p, q int, lo, hi int64) query {
	var a answer
	pv, qv := t.vals[p], t.vals[q]
	for r, v := range pv {
		if v >= lo && v < hi {
			a.rows++
			a.check += rowHash([]int64{v, qv[r]})
		}
	}
	return query{
		class: class,
		sql: fmt.Sprintf("select %s, %s from %s where %s >= %d and %s < %d",
			t.names[p], t.names[q], name, t.names[p], lo, t.names[p], hi),
		want: a,
	}
}

// logWindow counts the log rows with ts >= from and sums their bytes.
func (t *table) logWindow(name string, from int64) query {
	var n, sum int64
	for r, ts := range t.vals[0] {
		if ts >= from {
			n++
			sum += t.vals[2][r]
		}
	}
	return query{
		class: "window",
		sql:   fmt.Sprintf("select count(*), sum(bytes) from %s where ts >= %d", name, from),
		want:  answer{rows: 1, ints: []int64{n, sum}},
	}
}

// logTotal aggregates the whole log.
func (t *table) logTotal(name string) query {
	var sum, maxTS int64
	for r, ts := range t.vals[0] {
		sum += t.vals[2][r]
		maxTS = max(maxTS, ts)
	}
	return query{
		class: "total",
		sql:   fmt.Sprintf("select count(*), sum(bytes), max(ts) from %s", name),
		want:  answer{rows: 1, ints: []int64{int64(t.rows()), sum, maxTS}},
	}
}
