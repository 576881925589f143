package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// observe reduces result cells, rendered as decimal text, to the shape of
// want: single-row aggregates keep their integer and float cells, any
// other result keeps its row count and order-free checksum.
func observe(want answer, rows [][]string) (answer, error) {
	got := answer{rows: int64(len(rows))}
	if want.ints != nil || want.flts != nil {
		if len(rows) != 1 {
			return got, nil
		}
		row := rows[0]
		if len(row) != len(want.ints)+len(want.flts) {
			return got, fmt.Errorf("got %d columns, want %d", len(row), len(want.ints)+len(want.flts))
		}
		for i, cell := range row {
			if i < len(want.ints) {
				v, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return got, err
				}
				got.ints = append(got.ints, v)
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return got, err
			}
			got.flts = append(got.flts, v)
		}
		return got, nil
	}
	cells := make([]int64, 0, 4)
	for _, row := range rows {
		cells = cells[:0]
		for _, cell := range row {
			v, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				return got, err
			}
			cells = append(cells, v)
		}
		got.check += rowHash(cells)
	}
	return got, nil
}

// verify checks a reply against q's expected answer.
func verify(q query, rep reply) error {
	var got answer
	if rep.got != nil {
		got = *rep.got
	} else {
		var err error
		if got, err = observe(q.want, rep.rows); err != nil {
			return fmt.Errorf("%s: %w", q.sql, err)
		}
	}
	if !q.want.matches(got) {
		return fmt.Errorf("%s: wrong answer: got %v, want %v", q.sql, got, q.want)
	}
	return nil
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// xs need not be sorted. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(rank(q, len(s)), 1), len(s))-1]
}

// rank is the 1-based nearest rank of the q-quantile of n samples.
func rank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{99.9, 99, 90, 50}

// tail returns the highest percentile on tailLadder that has at least ten
// samples beyond it, with its value.
func tail(xs []float64) (pct, value float64) {
	for _, p := range tailLadder {
		if len(xs)-rank(p/100, len(xs)) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, quantile(xs, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
