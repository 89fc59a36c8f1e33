package metrics

import (
	"errors"
	"math"
	"testing"
)

// TestErrEmptyTable verifies that every exported statistic rejects empty
// (or below-minimum) input with ErrEmpty, so callers can uniformly
// errors.Is-gate the "no data yet" case.
func TestErrEmptyTable(t *testing.T) {
	cases := []struct {
		name string
		call func() error
	}{
		{"RMSRelativeError", func() error { _, err := RMSRelativeError(nil, nil); return err }},
		{"Mean", func() error { _, err := Mean(nil); return err }},
		{"LinearRegression/nil", func() error { _, err := LinearRegression(nil, nil); return err }},
		{"LinearRegression/one", func() error { _, err := LinearRegression([]float64{1}, []float64{1}); return err }},
		{"ServiceError", func() error { _, err := ServiceError(nil, nil); return err }},
		{"ShareErrors", func() error { _, err := ShareErrors(nil, nil); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.call(); !errors.Is(err, ErrEmpty) {
				t.Errorf("err = %v, want ErrEmpty", err)
			}
		})
	}
}

func TestShareErrors(t *testing.T) {
	// Perfect proportionality: zero error everywhere.
	got, err := ShareErrors([]float64{10, 20, 30}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got {
		if e != 0 {
			t.Errorf("perfect schedule: err[%d] = %v, want 0", i, e)
		}
	}
	// Equal consumption under 1:3 shares: task 0 got 1/2 instead of
	// 1/4 (error 1.0), task 1 got 1/2 instead of 3/4 (error 1/3).
	got, err = ShareErrors([]float64{5, 5}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1) > 1e-12 || math.Abs(got[1]-1.0/3) > 1e-12 {
		t.Errorf("ShareErrors = %v, want [1, 1/3]", got)
	}
	// Degenerate inputs.
	if _, err := ShareErrors([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := ShareErrors([]float64{1}, []float64{0}); err == nil {
		t.Error("non-positive share should error")
	}
	if _, err := ShareErrors([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("zero total consumption should error")
	}
}
