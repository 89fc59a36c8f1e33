// Package share defines the workload share-distribution models used
// throughout the ALPS paper's evaluation (Table 2): linear, equal, and
// skewed distributions over n processes with n² total shares.
package share

import "fmt"

// Model names a share-distribution shape from Table 2 of the paper.
type Model int

const (
	// Linear assigns shares 1, 3, 5, …, 2n-1 (sum n²).
	Linear Model = iota
	// Equal assigns every process n shares (sum n²).
	Equal
	// Skewed assigns n-1 processes one share each and the remainder,
	// n²-(n-1), to the last process.
	Skewed
)

// Models lists all Table 2 models in paper order.
var Models = []Model{Linear, Equal, Skewed}

// String returns the paper's name for the model.
func (m Model) String() string {
	switch m {
	case Linear:
		return "linear"
	case Equal:
		return "equal"
	case Skewed:
		return "skewed"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Distribution returns the share vector for n processes under model m.
// For every model and n ≥ 1 the total is exactly n², matching the paper's
// choice of 25/100/400 total shares for 5/10/20 processes. The paper does
// not scale shares by their GCD and neither does this function.
func Distribution(m Model, n int) ([]int64, error) {
	if n < 1 {
		return nil, fmt.Errorf("share: need at least 1 process, got %d", n)
	}
	out := make([]int64, n)
	switch m {
	case Linear:
		for i := range out {
			out[i] = int64(2*i + 1)
		}
	case Equal:
		for i := range out {
			out[i] = int64(n)
		}
	case Skewed:
		for i := 0; i < n-1; i++ {
			out[i] = 1
		}
		out[n-1] = int64(n*n - (n - 1))
	default:
		return nil, fmt.Errorf("share: unknown model %d", int(m))
	}
	return out, nil
}

// Total returns the sum of a share vector.
func Total(shares []int64) int64 {
	var s int64
	for _, v := range shares {
		s += v
	}
	return s
}
