package main

import (
	"cmp"
	"math"
	"slices"

	"alps/internal/metrics"
)

// summary is one timing distribution as the benchmark reports it: the
// median, the highest standard percentile with at least ten samples beyond
// it, and the sample count.
type summary struct {
	p50       float64
	tailLabel string
	tail      float64
	n         int
}

// tails are the candidate tail percentiles, highest first, each with the
// sample count at which ten samples lie beyond it.
var tails = []struct {
	label string
	q     float64
	minN  int
}{
	{"p99.9", 0.999, 10000},
	{"p99", 0.99, 1000},
	{"p90", 0.9, 100},
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted,
// or 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// summarize sorts vals in place and summarizes them.
func summarize(vals []float64) summary {
	slices.Sort(vals)
	s := summary{p50: percentile(vals, 0.5), tailLabel: "p50", n: len(vals)}
	s.tail = s.p50
	for _, t := range tails {
		if len(vals) >= t.minN {
			s.tailLabel, s.tail = t.label, percentile(vals, t.q)
			break
		}
	}
	return s
}

// quartiles returns the first quartile, median and third quartile of vals
// by the same rule as Python's statistics.quantiles(vals, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := slices.Clone(vals)
	slices.Sort(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median: the
// statistic a metric's bound in BENCHMARK.json is held against.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// overBound reports whether a metric's values spread beyond its bound.
// Set-up time is exempt: its median alone is compared between commits.
func overBound(name string, vals []float64, bound float64) bool {
	return name != "setup_s" && spread(vals) > bound
}

// shareError returns the RMS over tasks of the relative share error
// (cpu_i/C − s_i/S) ÷ (s_i/S) for one window's per-task CPU and shares
// (§3.1). A window in which no task consumed CPU has no defined error.
func shareError(cpu, shares []float64) (float64, bool) {
	var total, s float64
	for i := range cpu {
		total += cpu[i]
		s += shares[i]
	}
	if total <= 0 || s <= 0 {
		return 0, false
	}
	actual := make([]float64, len(cpu))
	ideal := make([]float64, len(cpu))
	for i := range cpu {
		actual[i] = cpu[i] / total
		ideal[i] = shares[i] / s
	}
	rms, err := metrics.RMSRelativeError(actual, ideal)
	return rms, err == nil
}

// covered returns how much of [lo, hi) the spans cover, counting time
// covered by several overlapping spans once. It sorts spans by start.
func covered(spans []span, lo, hi int64) int64 {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var total int64
	end := lo
	for _, s := range spans {
		a, b := max(s.start, end), min(s.end, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}
