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
// ShareError's RMS and BeatRatio, on the degenerate inputs their gauges
// read before a window fills: no values, one value, and a non-positive
// mean.
func TestRMSAndBeatRatio(t *testing.T) {
	if rms, ok := ShareError(nil, nil, nil); rms != 0 || ok {
		t.Errorf("ShareError of an empty window = (%v, %t), want (0, false)", rms, ok)
	}
	if rms, ok := ShareError(nil, []float64{5}, []float64{1}); rms != 0 || !ok {
		t.Errorf("ShareError of one principal = (%v, %t), want (0, true)", rms, ok)
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

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v (%v), want 2.5", m, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) should error")
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
		return close(line.Slope*n+line.Intercept, 100/(n+1), 1e-6)
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

// TestShareError pins the one share-error decision: consumption and
// weight normalise over the same target set (weight > 0), an all-idle
// window or an empty target set is "no signal", and a lone target is
// exactly on share.
func TestShareError(t *testing.T) {
	for _, tc := range []struct {
		name     string
		consumed []float64
		weight   []float64
		errs     []float64 // nil when !ok
		rms      float64
		ok       bool
	}{
		{"perfect", []float64{10, 20, 30}, []float64{1, 2, 3}, []float64{0, 0, 0}, 0, true},
		// Equal consumption under 1:3: f = 1/2, 1/2 against t = 1/4, 3/4.
		{"skewed", []float64{5, 5}, []float64{1, 3}, []float64{1, -1.0 / 3}, math.Sqrt((1 + 1.0/9) / 2), true},
		// The third principal consumes but holds no weight: it leaves
		// both totals, so the 1:3 targets are judged on 10:30 alone.
		{"consumer outside the target set", []float64{10, 30, 60}, []float64{1, 3, 0}, []float64{0, 0, 0}, 0, true},
		{"non-positive weight", []float64{10, 30, 60}, []float64{1, 3, -2}, []float64{0, 0, 0}, 0, true},
		{"starved target", []float64{0, 40}, []float64{1, 3}, []float64{-1, 1.0 / 3}, math.Sqrt((1 + 1.0/9) / 2), true},
		{"all-idle window", []float64{0, 0}, []float64{1, 3}, nil, 0, false},
		{"only outsiders consumed", []float64{0, 0, 5}, []float64{1, 3, 0}, nil, 0, false},
		{"no target", []float64{5}, []float64{0}, nil, 0, false},
		{"empty", nil, nil, nil, 0, false},
		{"single principal", []float64{7}, []float64{2}, []float64{0}, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]float64, len(tc.consumed))
			for i := range errs {
				errs[i] = 42 // sentinel: untouched on no signal
			}
			rms, ok := ShareError(errs, tc.consumed, tc.weight)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				for i, e := range errs {
					if e != 42 {
						t.Errorf("no signal wrote errs[%d] = %v", i, e)
					}
				}
				return
			}
			if !close(rms, tc.rms, 1e-12) {
				t.Errorf("rms = %v, want %v", rms, tc.rms)
			}
			for i, want := range tc.errs {
				if !close(errs[i], want, 1e-12) {
					t.Errorf("errs[%d] = %v, want %v", i, errs[i], want)
				}
			}
			if r2, _ := ShareError(nil, tc.consumed, tc.weight); r2 != rms {
				t.Errorf("nil errs changed rms: %v vs %v", r2, rms)
			}
		})
	}
}

// TestShareErrorsMagnitudeView: on every non-idle cycle ShareErrors and
// its RMS are bit-identical to the formula the alps_share_error_ratio
// histograms and the node auditor's raw gauge were built on.
func TestShareErrorsMagnitudeView(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		consumed := make([]float64, n)
		shares := make([]float64, n)
		for i := range consumed {
			consumed[i] = rng.Float64() * 0.05
			if rng.Intn(5) == 0 {
				consumed[i] = 0
			}
			shares[i] = float64(1 + rng.Intn(10))
		}
		var total, s float64
		for i := range consumed {
			total += consumed[i]
			s += shares[i]
		}
		got, err := ShareErrors(consumed, shares)
		if total == 0 {
			if err == nil {
				t.Fatalf("trial %d: idle cycle accepted", trial)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for i := range consumed {
			ideal := shares[i] / s
			want[i] = math.Abs(consumed[i]/total-ideal) / ideal
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: errs[%d] = %v, want %v bit for bit", trial, i, got[i], want[i])
			}
		}
		var sq float64
		for _, e := range want {
			sq += e * e
		}
		if rms, _ := ShareError(nil, consumed, shares); rms != math.Sqrt(sq/float64(n)) {
			t.Fatalf("trial %d: rms %v != RMS of magnitudes %v", trial, rms, math.Sqrt(sq/float64(n)))
		}
	}
}

// TestEWMA: the first reading seeds the smoother, later ones fold in
// with EWMAAlpha.
func TestEWMA(t *testing.T) {
	var e EWMA
	if e.Value() != 0 {
		t.Fatalf("empty EWMA = %v, want 0", e.Value())
	}
	e.Add(0.5)
	if e.Value() != 0.5 {
		t.Fatalf("seeded EWMA = %v, want 0.5", e.Value())
	}
	e.Add(0)
	if want := (1 - EWMAAlpha) * 0.5; !close(e.Value(), want, 1e-15) {
		t.Fatalf("EWMA after fold = %v, want %v", e.Value(), want)
	}
}
