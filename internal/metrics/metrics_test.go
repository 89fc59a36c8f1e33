package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRMSRelativeError(t *testing.T) {
	// Exact case: errors of +10% and -10% → RMS 10%.
	v, err := RMSRelativeError([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !close(v, 0.10, 1e-12) {
		t.Errorf("RMS = %v, want 0.10", v)
	}
	// Perfect allocation → zero error.
	v, _ = RMSRelativeError([]float64{1, 2, 3}, []float64{1, 2, 3})
	if v != 0 {
		t.Errorf("perfect RMS = %v, want 0", v)
	}
}

func TestRMSRelativeErrorErrors(t *testing.T) {
	if _, err := RMSRelativeError(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := RMSRelativeError([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := RMSRelativeError([]float64{1}, []float64{0}); err == nil {
		t.Error("zero ideal should error")
	}
}

// TestRMSAndBeatRatio pins the two window statistics the auditors share,
// including the degenerate inputs their gauges read before a window
// fills: no values, one value, and a non-positive mean.
func TestRMSAndBeatRatio(t *testing.T) {
	if v := RMS(nil); v != 0 {
		t.Errorf("RMS(nil) = %v, want 0", v)
	}
	if v := RMS([]float64{3, -4}); !close(v, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMS(3, -4) = %v, want sqrt(12.5)", v)
	}
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 0},
		{[]float64{-1, 1}, 0},
		{[]float64{2, 2, 2}, 0},
		{[]float64{1, 3}, 1},
		{[]float64{1, 2, 3, 2}, 1},
	} {
		if got := BeatRatio(tc.xs); !close(got, tc.want, 1e-12) {
			t.Errorf("BeatRatio(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestRMSBounds: the RMS of relative errors lies between the min and max
// absolute relative error.
func TestRMSBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		actual := make([]float64, n)
		ideal := make([]float64, n)
		lo, hi := math.Inf(1), 0.0
		for i := 0; i < n; i++ {
			ideal[i] = 1 + rng.Float64()*99
			actual[i] = ideal[i] * (0.5 + rng.Float64())
			re := math.Abs(actual[i]-ideal[i]) / ideal[i]
			lo = math.Min(lo, re)
			hi = math.Max(hi, re)
		}
		v, err := RMSRelativeError(actual, ideal)
		if err != nil {
			return false
		}
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v (%v), want 2.5", m, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) should error")
	}
	sd, err := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil || !close(sd, 2.138, 0.001) {
		t.Errorf("StdDev = %v (%v), want ~2.138", sd, err)
	}
	if _, err := StdDev([]float64{1}); err == nil {
		t.Error("StdDev of one sample should error")
	}
}

func TestLinearRegressionExact(t *testing.T) {
	// y = 3x + 2, exactly.
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 2
	}
	l, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !close(l.Slope, 3, 1e-12) || !close(l.Intercept, 2, 1e-12) || !close(l.R2, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 3 intercept 2 R2 1", l)
	}
	if got := l.Eval(10); !close(got, 32, 1e-9) {
		t.Errorf("Eval(10) = %v, want 32", got)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x should error")
	}
}

// TestRegressionRecovers: least squares recovers a noiseless line for
// random parameters.
func TestRegressionRecovers(t *testing.T) {
	f := func(slope, intercept int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := float64(slope)/100, float64(intercept)/100
		var xs, ys []float64
		for i := 0; i < 10; i++ {
			x := rng.Float64() * 100
			xs = append(xs, x)
			ys = append(ys, a*x+b)
		}
		l, err := LinearRegression(xs, ys)
		if err != nil {
			// Degenerate draws (all-equal x) are possible but
			// vanishingly unlikely; treat as pass.
			return true
		}
		return close(l.Slope, a, 1e-6) && close(l.Intercept, b, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlatDataR2(t *testing.T) {
	l, err := LinearRegression([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if l.Slope != 0 || l.R2 != 1 {
		t.Errorf("flat fit = %+v", l)
	}
}

func TestRelativeError(t *testing.T) {
	re, err := RelativeError(16.5, 16.7)
	if err != nil || !close(re, 0.01197, 0.0001) {
		t.Errorf("RelativeError = %v (%v)", re, err)
	}
	if _, err := RelativeError(1, 0); err == nil {
		t.Error("zero target should error")
	}
}

// TestBreakdownThresholdPaperFits feeds the paper's published U_Q(N)
// fits (§4.2) and checks we recover the paper's predicted thresholds of
// 39, 54, and 75 processes.
func TestBreakdownThresholdPaperFits(t *testing.T) {
	cases := []struct {
		line Line
		want float64
	}{
		{Line{Slope: 0.0639, Intercept: 0.0604}, 39},
		{Line{Slope: 0.0338, Intercept: 0.0340}, 54},
		{Line{Slope: 0.0172, Intercept: 0.0160}, 75},
	}
	for _, c := range cases {
		got, err := BreakdownThreshold(c.line)
		if err != nil {
			t.Fatalf("%+v: %v", c.line, err)
		}
		if math.Abs(got-c.want) > 1 {
			t.Errorf("threshold for %+v = %.1f, want ~%.0f (paper)", c.line, got, c.want)
		}
	}
}

// TestBreakdownThresholdSatisfiesEquation: any returned N* satisfies
// U(N*) = 100/(N*+1).
func TestBreakdownThresholdSatisfiesEquation(t *testing.T) {
	f := func(s, i uint16) bool {
		line := Line{Slope: float64(s%1000)/10000 + 1e-4, Intercept: float64(i%1000) / 10000}
		n, err := BreakdownThreshold(line)
		if err != nil {
			return true
		}
		return close(line.Eval(n), 100/(n+1), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBreakdownThresholdDegenerate(t *testing.T) {
	// Flat zero overhead never intersects the availability curve.
	if _, err := BreakdownThreshold(Line{Slope: 0, Intercept: 0}); err == nil {
		t.Error("zero overhead should have no threshold")
	}
	// Flat positive overhead: U = c intersects 100/(N+1) at N = 100/c - 1.
	n, err := BreakdownThreshold(Line{Slope: 0, Intercept: 2})
	if err != nil || !close(n, 49, 1e-9) {
		t.Errorf("flat threshold = %v (%v), want 49", n, err)
	}
}

func TestServiceError(t *testing.T) {
	// Two tasks entitled 25%/75%; the trace gives task 0 a 10-unit lead
	// at sample 1 that's gone by sample 2.
	cum := [][]float64{
		{10, 10},  // total 20, entitled {5, 15} → errors {5, 5}
		{35, 65},  // total 100, entitled {25, 75} → errors {10, 10}
		{50, 150}, // exactly entitled → errors 0
	}
	errs, err := ServiceError(cum, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != 10 || errs[1] != 10 {
		t.Errorf("ServiceError = %v, want [10 10]", errs)
	}
}

func TestServiceErrorErrors(t *testing.T) {
	if _, err := ServiceError(nil, []float64{1}); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := ServiceError([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("width mismatch should error")
	}
}
