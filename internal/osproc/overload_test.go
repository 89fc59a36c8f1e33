package osproc

import (
	"testing"
	"time"

	"alps/internal/obs"
)

// stepEff is stepQuantum against the *effective* quantum: the overload
// guard stretches it mid-run, and the loop timer follows.
func stepEff(fs *FaultSys, r *Runner) {
	fs.Advance(r.EffectiveQuantum())
	r.Step()
}

func slowN(fs *FaultSys, pid, n int) {
	for i := 0; i < n; i++ {
		fs.Inject(pid, CallRead, FaultSlow)
	}
}

func TestOverloadDegradeAndRecover(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.SlowDelay = 8 * time.Millisecond // each read eats 8ms of a 10ms quantum
	log := obs.NewEventLog()
	r := newFaultRunner(t, fs, Config{
		Quantum:  10 * time.Millisecond,
		Observer: log,
		Overload: OverloadConfig{Enable: true},
	}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	defer r.Release()

	if r.EffectiveQuantum() != 10*time.Millisecond {
		t.Fatalf("effective quantum = %v at start", r.EffectiveQuantum())
	}

	// Sustained overload: work 8ms > 0.5 × 10ms for overloadWindow
	// consecutive quanta → stretch to 20ms. At 20ms the same work is
	// 8ms < 10ms, so one level suffices. (The very first tick admits the
	// task without a measurement read, hence one step more than there
	// are measured quanta.)
	slowN(fs, 10, overloadWindow)
	for i := 0; i < overloadWindow+1; i++ {
		stepEff(fs, r)
	}
	if r.EffectiveQuantum() != 20*time.Millisecond {
		t.Fatalf("effective quantum = %v after sustained overload, want 20ms", r.EffectiveQuantum())
	}
	if r.Scheduler().Quantum() != 20*time.Millisecond {
		t.Errorf("scheduler quantum = %v, want 20ms (grants must use the stretched Q)", r.Scheduler().Quantum())
	}
	h := r.Health()
	if h.DegradeLevel != 1 || h.OverloadDegrades != 1 {
		t.Errorf("level=%d degrades=%d, want 1 and 1", h.DegradeLevel, h.OverloadDegrades)
	}
	if !h.Degraded() {
		t.Error("Health.Degraded() = false while overload-degraded")
	}

	// Load vanishes: work ≈ 0 < 0.25 × 10ms for overloadWindow
	// consecutive quanta → recover to 10ms.
	for i := 0; i < overloadWindow; i++ {
		stepEff(fs, r)
	}
	if r.EffectiveQuantum() != 10*time.Millisecond {
		t.Fatalf("effective quantum = %v after recovery, want 10ms", r.EffectiveQuantum())
	}
	if h := r.Health(); h.DegradeLevel != 0 || h.OverloadRecovers != 1 {
		t.Errorf("level=%d recovers=%d, want 0 and 1", h.DegradeLevel, h.OverloadRecovers)
	}

	evs := log.Filter(obs.KindDegrade)
	if len(evs) != 2 {
		t.Fatalf("degrade events = %d, want 2 (one overload, one recovery)", len(evs))
	}
	if evs[0].Reason != obs.ReasonOverload || evs[0].N != 1 || evs[0].Length != 20*time.Millisecond {
		t.Errorf("first event = %+v, want overload level=1 q=20ms", evs[0])
	}
	if evs[1].Reason != obs.ReasonRecovered || evs[1].N != 0 || evs[1].Length != 10*time.Millisecond {
		t.Errorf("second event = %+v, want recovered level=0 q=10ms", evs[1])
	}
}

func TestOverloadCapsAtMaxQuantum(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.SlowDelay = 30 * time.Millisecond // overloads even a 40ms quantum
	r := newFaultRunner(t, fs, Config{
		Quantum:  10 * time.Millisecond,
		Overload: OverloadConfig{Enable: true},
	}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	defer r.Release()

	// Inject more faults than the loop can consume (catch-up passes for
	// overrun quanta pop one each) so the overload never lets up.
	slowN(fs, 10, 300)
	for i := 0; i < 40; i++ {
		stepEff(fs, r)
	}
	// 10 → 20 → 40, then pinned: the default MaxQuantum (40ms, Fig. 4's
	// last accurate point) is never exceeded however long the overload
	// lasts.
	if r.EffectiveQuantum() != 40*time.Millisecond {
		t.Errorf("effective quantum = %v, want capped 40ms", r.EffectiveQuantum())
	}
	if h := r.Health(); h.DegradeLevel != 2 || h.OverloadDegrades != 2 {
		t.Errorf("level=%d degrades=%d, want 2 and 2", h.DegradeLevel, h.OverloadDegrades)
	}
}

func TestOverloadDisabledByDefault(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.SlowDelay = 15 * time.Millisecond
	r := newFaultRunner(t, fs, Config{
		Quantum: 10 * time.Millisecond,
	}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	defer r.Release()
	slowN(fs, 10, 20)
	for i := 0; i < 20; i++ {
		stepEff(fs, r)
	}
	if r.EffectiveQuantum() != 10*time.Millisecond {
		t.Errorf("effective quantum = %v with guard disabled, want 10ms", r.EffectiveQuantum())
	}
	if h := r.Health(); h.DegradeLevel != 0 || h.OverloadDegrades != 0 {
		t.Errorf("level=%d degrades=%d with guard disabled, want 0 and 0", h.DegradeLevel, h.OverloadDegrades)
	}
}

// A quantum reconfiguration resets degradation: the guard's levels are
// relative to the operator's configured quantum.
func TestReconfigQuantumResetsDegradation(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.SlowDelay = 8 * time.Millisecond
	r := newFaultRunner(t, fs, Config{
		Quantum:  10 * time.Millisecond,
		Overload: OverloadConfig{Enable: true},
	}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	defer r.Release()
	slowN(fs, 10, overloadWindow+1)
	for i := 0; i < overloadWindow+1; i++ {
		stepEff(fs, r)
	}
	if r.Health().DegradeLevel != 1 {
		t.Fatalf("level = %d, want 1", r.Health().DegradeLevel)
	}
	if err := r.Reconfigure(Reconfig{Quantum: 30 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if r.EffectiveQuantum() != 30*time.Millisecond {
		t.Errorf("effective quantum = %v, want the reconfigured 30ms", r.EffectiveQuantum())
	}
	if h := r.Health(); h.DegradeLevel != 0 {
		t.Errorf("level = %d after quantum reconfig, want 0", h.DegradeLevel)
	}
}

// Checkpoint hook: every Step that completes a cycle hands the full
// durable state to the callback.
func TestCheckpointHookFiresPerCycle(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	var states []RunnerState
	r := newFaultRunner(t, fs, Config{
		Checkpoint: func(st RunnerState) { states = append(states, st) },
	}, []Task{{ID: 1, Share: 2, PIDs: []int{10}}})
	defer r.Release()
	for i := 0; i < 12; i++ {
		stepQuantum(fs, r)
	}
	cycles := r.Scheduler().Cycles()
	if cycles == 0 {
		t.Fatal("no cycles completed in 12 quanta")
	}
	if len(states) != cycles {
		t.Errorf("checkpoint fired %d times over %d cycles", len(states), cycles)
	}
	last := states[len(states)-1]
	if last.BaseQuantum != fq || len(last.Tasks) != 1 || last.Tasks[0].ID != 1 {
		t.Errorf("checkpoint state = %+v, want base quantum %v and task 1", last, fq)
	}
	if last.Tasks[0].PIDs[0] != (PIDRecord{PID: 10, Start: 1}) {
		t.Errorf("pid record = %+v, want {10 1}", last.Tasks[0].PIDs[0])
	}
}
