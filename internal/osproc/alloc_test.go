//go:build !race

// Race instrumentation allocates shadow memory on the hot path, so the
// zero-allocation contract is only checkable in a plain build.

package osproc

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"alps/internal/core"
)

// watchSys counts the reads of TestSteadyStateZeroAllocs's sleepers,
// every PID but each twentieth. The sleepers stay dormant, so each such
// read is a watch read.
type watchSys struct {
	*FaultSys
	reads int
}

func (w *watchSys) ReadStat(pid int) (Stat, error) {
	if (pid-1000)%20 != 0 {
		w.reads++
	}
	return w.FaultSys.ReadStat(pid)
}

// sleeperFleet installs n processes on fs, each twentieth a busy loop
// and the rest asleep, and returns one task per process with shares
// 1..8 in turn.
func sleeperFleet(fs *FaultSys, n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		pid := 1000 + i
		state := byte('S')
		if i%20 == 0 {
			state = 'R'
		}
		fs.AddProc(FaultProc{PID: pid, Start: uint64(pid), State: state})
		tasks[i] = Task{ID: core.TaskID(i + 1), Share: int64(i%8) + 1, PIDs: []int{pid}}
	}
	return tasks
}

// TestSteadyStateZeroAllocs is the alloc-regression gate: after warmup,
// one quantum of the indexed loop — scheduler tick, FaultSys reads,
// signal delivery, reconcile — must perform zero heap allocations when
// no observer is attached. The median over the window is asserted, not
// the max: the runtime itself (GC bookkeeping, map growth amortization)
// may land a stray allocation inside any single Step, and the median
// discards those without hiding a loop that allocates every quantum.
// The sleepers go dormant and, never having woken, are read once per
// nominal cycle: the quanta that carry those watch reads are few, and
// their median is asserted on its own over at least ten of them, once
// the due index has grown to hold a watch batch in each slot. A second
// fleet of 5000 processes is measured as a scaling sweep would measure
// it: the median over 300 quanta after only 50 warm-up quanta, when no
// sleeper is dormant yet.
func TestSteadyStateZeroAllocs(t *testing.T) {
	fs := NewFaultSys()
	fs.Quiet = true
	fs.SharedCPU = true
	ws := &watchSys{FaultSys: fs}
	const n = 300
	q := 10 * time.Millisecond
	r, err := NewRunner(Config{Quantum: q, Sys: ws}, sleeperFleet(fs, n))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()

	for i := 0; i < 100; i++ {
		fs.Advance(q)
		r.Step()
	}
	if d := r.Scheduler().NumDormant(); d != n-n/20 {
		t.Fatalf("%d dormant tasks after warmup, want the %d sleepers", d, n-n/20)
	}
	// Each watch batch is re-queued in the due index one nominal cycle
	// (S quanta) out, in a different one of its 64 level-0 slots each
	// time, and a slot's backing array grows once to hold a batch. Let
	// every slot take one before measuring the steady state.
	for i := 0; i < 64*int(r.Scheduler().TotalShares()); i++ {
		fs.Advance(q)
		r.Step()
	}
	const measure = 1000
	var before, after runtime.MemStats
	samples := make([]float64, 0, measure)
	var watch []float64 // quanta that read dormant tasks
	for i := 0; i < measure; i++ {
		fs.Advance(q)
		watchReads := ws.reads
		runtime.ReadMemStats(&before)
		r.Step()
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs - before.Mallocs)
		samples = append(samples, allocs)
		if ws.reads > watchReads {
			watch = append(watch, allocs)
		}
	}
	median := func(v []float64) (med, p90 float64) {
		sort.Float64s(v)
		return v[len(v)/2], v[len(v)*9/10]
	}
	if med, p90 := median(samples); med != 0 {
		t.Errorf("steady-state quantum allocates: median %.0f allocs/Step (p90 %.0f) over %d steps, want 0",
			med, p90, measure)
	}
	if len(watch) < 10 {
		t.Fatalf("only %d quanta read dormant tasks in %d steps, want at least 10", len(watch), measure)
	}
	t.Logf("%d quanta read dormant tasks in %d steps", len(watch), measure)
	if med, p90 := median(watch); med != 0 {
		t.Errorf("quanta with dormant watch reads allocate: median %.0f allocs/Step (p90 %.0f) over %d quanta, want 0",
			med, p90, len(watch))
	}

	big := NewFaultSys()
	big.Quiet = true
	big.SharedCPU = true
	rb, err := NewRunner(Config{Quantum: q, Sys: big}, sleeperFleet(big, 5000))
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Release()
	for i := 0; i < 50; i++ {
		big.Advance(q)
		rb.Step()
	}
	samples = samples[:0]
	for i := 0; i < 300; i++ {
		big.Advance(q)
		runtime.ReadMemStats(&before)
		rb.Step()
		runtime.ReadMemStats(&after)
		samples = append(samples, float64(after.Mallocs-before.Mallocs))
	}
	if med, p90 := median(samples); med != 0 {
		t.Errorf("N=5000: steady-state quantum allocates: median %.0f allocs/Step (p90 %.0f) over 300 steps, want 0",
			med, p90)
	}
}
