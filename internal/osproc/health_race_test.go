package osproc

import (
	"io"
	"sync"
	"testing"

	"alps/internal/obs"
)

// TestHealthConcurrentWithStep hammers Health() — and the Prometheus
// scrape path, which reads the very same atomics — from several
// goroutines while the control loop Steps through a fault-heavy
// scenario. Run under -race this proves the documented contract that
// Health may be called from any goroutine: every snapshot read uses the
// same atomic accessors as the loop's writers. Only the main goroutine
// drives Step and Advance.
func TestHealthConcurrentWithStep(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1, State: 'R', Rate: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1, State: 'R', Rate: 1})
	reg := obs.NewRegistry()
	log := obs.NewEventLog()
	r := newFaultRunner(t, fs, Config{Metrics: reg, Observer: log}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 3, PIDs: []int{20}},
	})
	// A steady diet of transient faults keeps every counter moving.
	for i := 0; i < 200; i++ {
		fs.Inject(10, CallRead, FaultEINTR)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := r.Health()
				_ = h.String()
				_ = h.Degraded()
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}

	for i := 0; i < 500; i++ {
		stepQuantum(fs, r)
	}
	close(stop)
	wg.Wait()

	h := r.Health()
	if h.Ticks < 500 {
		t.Errorf("Ticks = %d, want >= 500", h.Ticks)
	}
	requireNoCPULost(t, r, fs, log, 1, 10)
	if h.LastLateness < 0 || h.MaxLateness < h.LastLateness {
		t.Errorf("lateness snapshot inconsistent: last=%v max=%v", h.LastLateness, h.MaxLateness)
	}
}
