package tshist

// Series analysis for the timeline reports: FFT-free detection of a
// periodic beat in a sampled gauge (the measurement-window aliasing the
// auditors hunt). The wobble statistic the benchmarks gate on is
// metrics.BeatRatio; Values turns retained points into its input.

// DominantPeriod detects a periodic beat by normalized autocorrelation
// — no FFT, just the direct lag products, fine for the few hundred
// points a timeline retains. It returns the lag in [2, maxLag] with the
// highest normalized autocorrelation of the mean-removed series, and
// that correlation (in [-1, 1]). Returns (0, 0) when the series is too
// short (needs at least 3*lag points for a meaningful estimate at lag)
// or flat.
func DominantPeriod(xs []float64, maxLag int) (lag int, corr float64) {
	n := len(xs)
	if n < 6 || maxLag < 2 {
		return 0, 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var0 := 0.0
	d := make([]float64, n)
	for i, x := range xs {
		d[i] = x - mean
		var0 += d[i] * d[i]
	}
	if var0 <= 0 {
		return 0, 0
	}
	if maxLag > n/3 {
		maxLag = n / 3
	}
	best, bestCorr := 0, 0.0
	for l := 2; l <= maxLag; l++ {
		var c float64
		for i := l; i < n; i++ {
			c += d[i] * d[i-l]
		}
		// Normalize by the full-series variance scaled to the overlap
		// length — the standard biased autocorrelation estimate.
		c /= var0 * float64(n-l) / float64(n)
		if c > bestCorr {
			best, bestCorr = l, c
		}
	}
	return best, bestCorr
}

// Values extracts the value column of a point series.
func Values(pts []Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Value
	}
	return out
}
