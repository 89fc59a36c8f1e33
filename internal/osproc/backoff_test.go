package osproc

import (
	"testing"
	"time"
)

// retryElapsed starts one runner startAfter past the fake's epoch,
// drives it through two transient signal failures (EINTR on the first
// SIGCONT, retried with jittered backoff) and returns the virtual time
// the step consumed — quantum plus the two backoff sleeps.
func retryElapsed(t *testing.T, startAfter time.Duration) time.Duration {
	t.Helper()
	fs := NewFaultSys()
	fs.Advance(startAfter) // the runner's start instant seeds its jitter
	fs.AddProc(FaultProc{PID: 42, Start: 1})
	r := newFaultRunner(t, fs, Config{},
		[]Task{{ID: 1, Share: 1, PIDs: []int{42}}})
	fs.Inject(42, CallCont, FaultEINTR, FaultEINTR)
	before := fs.Now()
	stepQuantum(fs, r)
	elapsed := fs.Now().Sub(before)
	if fs.Sleeps != 2 {
		t.Fatalf("start +%v: backoff sleeps = %d, want 2", startAfter, fs.Sleeps)
	}
	r.Release()
	return elapsed
}

// TestBackoffSeedDeterministic: the signal-retry backoff is jittered
// from the runner's start instant — two runners started at the same
// instant share a schedule; two started 1ns apart do not (the fleet's
// thundering-herd defence).
func TestBackoffSeedDeterministic(t *testing.T) {
	a1 := retryElapsed(t, 0)
	a2 := retryElapsed(t, 0)
	if a1 != a2 {
		t.Errorf("same start instant gave different backoff schedules: %v vs %v", a1, a2)
	}
	b := retryElapsed(t, time.Nanosecond)
	if a1 == b {
		t.Errorf("starts 1ns apart gave identical backoff schedules (%v): jitter not decorrelating", a1)
	}
}
