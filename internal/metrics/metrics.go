// Package metrics implements the statistics used by the ALPS paper's
// evaluation: per-cycle RMS relative error (§3.1), least-squares linear
// regression for the multiple-ALPS slopes (§4.1) and the scalability
// overhead fits (§4.2), and the breakdown-threshold solver
// U_Q(N) = 100/(N+1).
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned when a statistic is requested over no data.
var ErrEmpty = errors.New("metrics: empty input")

// RMSRelativeError returns the root mean square of the per-element
// relative errors (actual[i]-ideal[i])/ideal[i]. This is the paper's
// per-cycle accuracy statistic (§3.1). Elements with ideal == 0 are
// rejected as an error since the relative error is undefined there.
func RMSRelativeError(actual, ideal []float64) (float64, error) {
	if len(actual) == 0 {
		return 0, ErrEmpty
	}
	if len(actual) != len(ideal) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(actual), len(ideal))
	}
	var sum float64
	for i := range actual {
		if ideal[i] == 0 {
			return 0, fmt.Errorf("metrics: ideal[%d] is zero", i)
		}
		re := (actual[i] - ideal[i]) / ideal[i]
		sum += re * re
	}
	return math.Sqrt(sum / float64(len(actual))), nil
}

// RMS returns the root mean square of xs, or 0 for no values.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sq float64
	for _, x := range xs {
		sq += x * x
	}
	return math.Sqrt(sq / float64(len(xs)))
}

// BeatRatio is the steady-state wobble statistic: (max - min) / mean
// over the samples. 0 for fewer than 2 samples or a non-positive mean.
// A converged, alias-free estimator holds this near 0; a window beating
// against a duty cycle pushes it toward (and past) 1 — the fair-share
// decay-window aliasing the auditors and timeline reports hunt.
func BeatRatio(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	min, max, sum := xs[0], xs[0], 0.0
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean <= 0 {
		return 0
	}
	return (max - min) / mean
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the sample standard deviation of xs (n-1 denominator).
func StdDev(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1)), nil
}

// ShareError is the one relative share-error decision (§3.1) behind the
// node auditor's windowed and per-cycle RMS, the fleet auditor's
// windowed and per-round RMS, the rebalancer's global RMS and
// correction, and the SMP experiment. consumed[i] and weight[i] describe
// principal i over one window (errs, when non-nil, has the same
// length). The target set is the principals with weight > 0, and both
// the consumed fraction f_i and the target fraction t_i are normalised
// over it: consumption by a principal outside the set moves neither.
//
// For each target, errs[i] receives the signed relative error
// (f_i − t_i)/t_i — −1 for a target that consumed nothing — and rms is
// their root mean square; errs[i] is 0 outside the set. ok is false
// when the window carries no signal: no target, or no target consumed
// anything (an all-idle window). errs is then untouched, and a caller
// must move no estimator on it.
func ShareError(errs, consumed, weight []float64) (rms float64, ok bool) {
	var total, sum float64
	n := 0
	for i, w := range weight {
		if w > 0 {
			total += consumed[i]
			sum += w
			n++
		}
	}
	if n == 0 || total <= 0 {
		return 0, false
	}
	var sq float64
	for i, w := range weight {
		var e float64
		if w > 0 {
			t := w / sum
			e = (consumed[i]/total - t) / t
			sq += e * e
		}
		if errs != nil {
			errs[i] = e
		}
	}
	return math.Sqrt(sq / float64(n)), true
}

// ShareErrors is the magnitude view of ShareError for one cycle in
// which every task is a target: |consumed_i/total − share_i/S| ÷
// (share_i/S). Zero means the task received exactly its entitled
// fraction; 1 means it was off by its whole entitlement. This is the
// per-principal statistic behind the alps_share_error_ratio histogram
// family. A non-positive share and an all-idle cycle are errors.
func ShareErrors(consumed []float64, shares []float64) ([]float64, error) {
	if len(consumed) == 0 {
		return nil, ErrEmpty
	}
	if len(consumed) != len(shares) {
		return nil, fmt.Errorf("metrics: length mismatch %d vs %d", len(consumed), len(shares))
	}
	for i, s := range shares {
		if s <= 0 {
			return nil, fmt.Errorf("metrics: share[%d] = %v, want > 0", i, s)
		}
	}
	out := make([]float64, len(consumed))
	if _, ok := ShareError(out, consumed, shares); !ok {
		return nil, errors.New("metrics: no consumption in cycle")
	}
	for i, e := range out {
		out[i] = math.Abs(e)
	}
	return out, nil
}

// EWMAAlpha is the weight the share-error smoother gives each new
// reading. 0.1 attenuates a window beating against a duty cycle of
// period 2–5 by an order of magnitude while still tracking a real drift
// within ~10 readings — the fair-share decay-window beat Gunther
// documents for Solaris SRM.
const EWMAAlpha = 0.1

// EWMA is the share-error smoother both auditors run. The zero value
// holds no reading; the first Add seeds it.
type EWMA struct {
	v      float64
	seeded bool
}

// Add folds one reading in with weight EWMAAlpha.
func (e *EWMA) Add(x float64) {
	if !e.seeded {
		e.v, e.seeded = x, true
		return
	}
	e.v = EWMAAlpha*x + (1-EWMAAlpha)*e.v
}

// Value returns the smoothed reading, 0 before the first Add.
func (e *EWMA) Value() float64 { return e.v }

// Line is a fitted line y = Slope·x + Intercept.
type Line struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// LinearRegression fits a least-squares line through (xs[i], ys[i]). The
// paper uses this to extract each process's CPU consumption rate from its
// cumulative-CPU-vs-wall-time trace (§4.1) and to fit the overhead curves
// U_Q(N) (§4.2).
func LinearRegression(xs, ys []float64) (Line, error) {
	if len(xs) != len(ys) {
		return Line{}, fmt.Errorf("metrics: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Line{}, ErrEmpty
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Line{}, errors.New("metrics: degenerate x values")
	}
	slope := sxy / sxx
	l := Line{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		l.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		l.R2 = 1 // perfectly flat data is perfectly fit
	}
	return l, nil
}

// Eval returns the line's value at x.
func (l Line) Eval(x float64) float64 { return l.Slope*x + l.Intercept }

// RelativeError returns |actual-target|/target as a fraction. The paper
// reports these as percentages in Table 3.
func RelativeError(actual, target float64) (float64, error) {
	if target == 0 {
		return 0, errors.New("metrics: zero target")
	}
	return math.Abs(actual-target) / math.Abs(target), nil
}

// ServiceError computes each task's worst-case absolute service error
// over a cumulative-allocation trace: max over sample points t of
// |received_i(t) − fraction_i × total(t)|. This is the service-lag
// metric proportional-share guarantees are usually stated in (stride
// scheduling bounds it by one quantum; ALPS's §2.2 carryover bounds it
// by a small number of cycles). cum is sample-major: cum[t][i] is task
// i's cumulative allocation at sample t, and must be non-decreasing.
func ServiceError(cum [][]float64, fractions []float64) ([]float64, error) {
	if len(cum) == 0 {
		return nil, ErrEmpty
	}
	n := len(fractions)
	out := make([]float64, n)
	for t, row := range cum {
		if len(row) != n {
			return nil, fmt.Errorf("metrics: sample %d has %d tasks, want %d", t, len(row), n)
		}
		var total float64
		for _, v := range row {
			total += v
		}
		for i, v := range row {
			if e := math.Abs(v - fractions[i]*total); e > out[i] {
				out[i] = e
			}
		}
	}
	return out, nil
}

// BreakdownThreshold solves U(N) = 100/(N+1) for N, where U is the fitted
// percentage-overhead line of an ALPS configuration (paper §4.2). The
// right-hand side is the percentage of a quantum available to the ALPS
// process when it competes fairly with N workload processes. The returned
// value N* is the predicted number of processes at which ALPS loses
// control. An error is returned if no positive solution exists.
func BreakdownThreshold(u Line) (float64, error) {
	// U(N)·(N+1) = 100  ⇒  slope·N² + (slope+intercept)·N + intercept - 100 = 0.
	a := u.Slope
	b := u.Slope + u.Intercept
	c := u.Intercept - 100
	if a == 0 {
		if b <= 0 {
			return 0, errors.New("metrics: overhead never intersects availability")
		}
		return -c / b, nil
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, errors.New("metrics: no real solution")
	}
	sq := math.Sqrt(disc)
	n1 := (-b + sq) / (2 * a)
	n2 := (-b - sq) / (2 * a)
	best := math.Inf(1)
	for _, n := range []float64{n1, n2} {
		if n > 0 && n < best {
			best = n
		}
	}
	if math.IsInf(best, 1) {
		return 0, errors.New("metrics: no positive solution")
	}
	return best, nil
}
