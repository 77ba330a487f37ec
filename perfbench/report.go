package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and its human-readable lines.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	lines             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric and a line naming it; note says what it is.
func (r *report) set(name, unit string, v float64, note string) {
	r.metrics[name] = metric{v, unit}
	r.printf("%-32s %14.6g %-8s %s", name, v, unit, note)
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) count(t tally) {
	r.attempted += t.attempted
	r.failed += t.failed
}

// rank returns the q-quantile (0 < q < 1) of sorted by nearest rank.
func rank[T any](sorted []T, q float64) T {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// latSummary is a latency sample: its median, its 99th percentile, and
// the highest of the usual percentiles with at least ten samples
// beyond it.
type latSummary struct {
	n         int
	p50, p99  time.Duration
	tailName  string
	tail      time.Duration
	failedLat int // samples that are failures, not latencies
}

func summarize(lat []time.Duration) latSummary {
	s := slices.Clone(lat)
	slices.Sort(s)
	sum := latSummary{n: len(s)}
	if len(s) == 0 {
		return sum
	}
	for _, l := range s {
		if l == failedLat {
			sum.failedLat++
		}
	}
	sum.p50, sum.p99 = rank(s, 0.50), rank(s, 0.99)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}, {"p50", 0.50}} {
		if float64(len(s))*(1-q.q) >= 10 {
			sum.tailName, sum.tail = q.name, rank(s, q.q)
			break
		}
	}
	return sum
}

func (s latSummary) String() string {
	out := fmt.Sprintf("n=%d p50=%v p99=%v", s.n, s.p50, s.p99)
	if s.tailName != "" && s.tailName != "p99" {
		out += fmt.Sprintf(" %s=%v", s.tailName, s.tail)
	}
	return out + fmt.Sprintf(" failed=%d", s.failedLat)
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), so the spreads printed here match the ones a reader
// recomputes from the raw values.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := slices.Clone(values)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
