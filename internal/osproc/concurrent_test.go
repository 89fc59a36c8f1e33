package osproc

import (
	"reflect"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

// Merge-determinism tests for the sampler worker pool and the signal
// batcher: a run with Samplers=8 must produce the same transitions,
// cycle records, Health counters, and final suspension state as the
// sequential run on an identical FaultSys script — regardless of how the
// workers interleave. Run these under -race (make race / CI) to also
// prove the pool touches nothing unsynchronized.

// concurrentScript installs a multi-principal workload plus a schedule
// of the fault families the pool must preserve semantics for: EPERM
// read strikes (drop after maxBadPIDStrikes), transient EINTR reads,
// slow reads, EPERM signal strikes, PID reuse, and mid-run death.
func concurrentScript(fs *FaultSys) []Task {
	pid := 100
	var tasks []Task
	for id := core.TaskID(1); id <= 8; id++ {
		var pids []int
		for j := 0; j < 3; j++ {
			fs.AddProc(FaultProc{PID: pid, Start: uint64(pid)})
			pids = append(pids, pid)
			pid++
		}
		tasks = append(tasks, Task{ID: id, Share: int64(id%4) + 1, PIDs: pids})
	}
	fs.SlowDelay = time.Millisecond
	return tasks
}

// injectConcurrentFaults schedules the fault families after startup (the
// construction path would otherwise consume them while baselining):
// EPERM read strikes on 101 (drop after 3 denied quanta), transient
// races and stalls elsewhere, and persistent signal denials.
func injectConcurrentFaults(fs *FaultSys) {
	fs.Inject(101, CallRead, FaultEPERM, FaultEPERM, FaultEPERM, FaultEPERM, FaultEPERM, FaultEPERM)
	fs.Inject(104, CallRead, FaultEINTR, FaultEINTR)
	fs.Inject(107, CallRead, FaultSlow, FaultSlow)
	fs.Inject(110, CallRead, FaultEINTR)
	fs.Inject(116, CallStop, FaultEPERM, FaultEPERM, FaultEPERM)
	fs.Inject(119, CallCont, FaultEPERM, FaultEPERM, FaultEPERM)
}

// runConcurrentScript drives the scripted workload for a fixed number of
// quanta, killing and reusing PIDs at fixed ticks, and returns the
// observable outcome.
func runConcurrentScript(t *testing.T, samplers int) (h Health, transitions []obs.Event, cycles []core.CycleRecord, stopped []int) {
	t.Helper()
	fs := NewFaultSys()
	tasks := concurrentScript(fs)
	log := obs.NewEventLog()
	r := newFaultRunner(t, fs, Config{
		Samplers: samplers,
		Observer: log,
		OnCycle:  func(rec core.CycleRecord) { cycles = append(cycles, rec) },
	}, tasks)
	defer r.Release()
	injectConcurrentFaults(fs)
	for i := 0; i < 60; i++ {
		switch i {
		case 10:
			fs.Kill(105) // vanishes mid-run
		case 20:
			fs.Reuse(108, 9999) // kernel recycles the PID
		case 30:
			fs.Kill(111)
		}
		stepQuantum(fs, r)
	}
	return r.Health(), core.TransitionsOf(log.Events()), cycles, fs.StoppedPIDs()
}

// TestConcurrentSamplingMatchesSequential is the pool's equivalence
// proof: identical fault scripts, sequential vs 8 workers.
func TestConcurrentSamplingMatchesSequential(t *testing.T) {
	seqH, seqT, seqC, seqS := runConcurrentScript(t, 1)
	conH, conT, conC, conS := runConcurrentScript(t, 8)

	if !reflect.DeepEqual(seqT, conT) {
		t.Errorf("transition streams differ:\nsequential: %+v\nconcurrent: %+v", seqT, conT)
	}
	if !reflect.DeepEqual(seqC, conC) {
		t.Errorf("cycle records differ:\nsequential: %+v\nconcurrent: %+v", seqC, conC)
	}
	if !reflect.DeepEqual(seqS, conS) {
		t.Errorf("final stopped PIDs differ: sequential %v, concurrent %v", seqS, conS)
	}
	// The fault-handling counters must agree exactly: per-(pid, call)
	// FIFO fault schedules make each PID's outcome independent of worker
	// interleaving.
	type counters struct {
		ticks, vanished, reused, sigFailures, unsignalable, readRetries int64
	}
	sc := counters{seqH.Ticks, seqH.VanishedPIDs, seqH.ReusedPIDs, seqH.SignalFailures, seqH.UnsignalablePIDs, seqH.ReadRetries}
	cc := counters{conH.Ticks, conH.VanishedPIDs, conH.ReusedPIDs, conH.SignalFailures, conH.UnsignalablePIDs, conH.ReadRetries}
	if sc != cc {
		t.Errorf("health counters differ:\nsequential: %+v\nconcurrent: %+v", sc, cc)
	}
	if sc.vanished == 0 || sc.readRetries == 0 || sc.sigFailures == 0 || sc.unsignalable == 0 || sc.reused == 0 {
		t.Errorf("script exercised too little: %+v", sc)
	}
}

// TestConcurrentSamplingChaos hammers the pool with seeded random
// transient faults on every read; sequential and concurrent runs must
// still agree (chaos draws are consumed call-by-call under the FaultSys
// mutex, but per-PID retry behavior keeps outcomes aligned as long as
// the chaos sequence is the only nondeterminism — so this test fixes the
// seed and compares final workload state, not event-for-event equality).
func TestConcurrentSamplingChaos(t *testing.T) {
	for _, samplers := range []int{1, 4} {
		fs := NewFaultSys()
		var tasks []Task
		for id := core.TaskID(1); id <= 6; id++ {
			pid := 200 + int(id)
			fs.AddProc(FaultProc{PID: pid, Start: uint64(pid)})
			tasks = append(tasks, Task{ID: id, Share: int64(id), PIDs: []int{pid}})
		}
		fs.Chaos(42, 0.15)
		r := newFaultRunner(t, fs, Config{Samplers: samplers}, tasks)
		for i := 0; i < 80; i++ {
			stepQuantum(fs, r)
			checkTable(t, r, fs)
		}
		if r.sched.Len() == 0 {
			t.Errorf("samplers=%d: chaos run lost the whole workload", samplers)
		}
		r.Release()
		if got := fs.StoppedPIDs(); len(got) != 0 {
			t.Errorf("samplers=%d: PIDs left frozen after release: %v", samplers, got)
		}
	}
}

// TestPrefetchCoversDueTasks: the prefetch cache is consulted (no
// duplicate reads for due PIDs) and dropped at the end of the quantum.
func TestPrefetchCoversDueTasks(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 300, Start: 1})
	fs.AddProc(FaultProc{PID: 301, Start: 1})
	r := newFaultRunner(t, fs, Config{Samplers: 4}, []Task{
		{ID: 1, Share: 1, PIDs: []int{300}},
		{ID: 2, Share: 1, PIDs: []int{301}},
	})
	defer r.Release()
	for i := 0; i < 20; i++ {
		stepQuantum(fs, r)
		if r.statCache != nil {
			t.Fatal("statCache must not outlive the quantum")
		}
	}
	// Count raw reads per tick: each measured PID must be read exactly
	// once per quantum (the prefetched value is consumed, not re-read).
	reads := make(map[string]int)
	for _, line := range fs.Log {
		reads[line]++
	}
	perPID := reads["read 300"] + reads["read 301"]
	if perPID == 0 {
		t.Fatal("no reads logged")
	}
	// 20 quanta, 2 PIDs, minus postponed quanta: never more than one
	// read per PID per quantum (startup baselining adds a couple).
	if perPID > 2*20+4 {
		t.Errorf("duplicate reads: %d raw reads for 2 PIDs over 20 quanta", perPID)
	}
}

// TestFanOutCoversAllItems pins the pool itself.
func TestFanOutCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		for _, n := range []int{0, 1, 7, 100} {
			hits := make([]int32, n)
			var p pool
			p.run(workers, n, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: item %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestDisableIndexingForcesSequential: the benchmark baseline must not
// accidentally profit from the pool or the amortized reconcile.
func TestDisableIndexingForcesSequential(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 400, Start: 1})
	r := newFaultRunner(t, fs, Config{Samplers: 8, DisableIndexing: true}, []Task{
		{ID: 1, Share: 1, PIDs: []int{400}},
	})
	defer r.Release()
	if w := r.workers(); w != 1 {
		t.Errorf("workers() = %d with DisableIndexing, want 1", w)
	}
	stepQuantum(fs, r)
	if r.statCache != nil {
		t.Error("prefetch ran despite DisableIndexing")
	}
}
