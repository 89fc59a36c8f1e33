package osproc

import (
	"errors"
	"syscall"
	"testing"

	"alps/internal/core"
)

// TestJoinOutcomesAgree runs each join fault through every path that
// adopts a PID — NewRunner, Reconfigure's Add and SetPIDs, a membership
// refresh, and NewRunnerFromState — and requires the same outcome from
// all of them: the PID is not a member, it is not left stopped, and
// exactly one of VanishedPIDs, UnsignalablePIDs and ReusedPIDs rose by
// one. The one exception is NewRunner, which fails on a PID that refuses
// SIGSTOP and leaves nothing stopped.
func TestJoinOutcomesAgree(t *testing.T) {
	const pid = 30
	type counts struct{ vanished, unsignalable, reused int64 }
	countsOf := func(h Health) counts { return counts{h.VanishedPIDs, h.UnsignalablePIDs, h.ReusedPIDs} }
	faults := []struct {
		name        string
		restoreOnly bool // only a restore knows the start time a PID should have
		apply       func(fs *FaultSys)
		want        counts
	}{
		{"gone", false, func(fs *FaultSys) { fs.Kill(pid) }, counts{vanished: 1}},
		{"zombie", false, func(fs *FaultSys) { fs.SetState(pid, 'Z') }, counts{vanished: 1}},
		{"EPERM on the join signal", false, func(fs *FaultSys) { fs.Inject(pid, CallStop, FaultEPERM) }, counts{unsignalable: 1}},
		{"changed start time", true, func(fs *FaultSys) { fs.Reuse(pid, 99) }, counts{reused: 1}},
	}
	one := []Task{{ID: 1, Share: 1, PIDs: []int{10}}}
	two := []Task{{ID: 1, Share: 1, PIDs: []int{10}}, {ID: 2, Share: 1, PIDs: []int{pid}}}
	// Each path applies the fault just before the join and returns the
	// runner, its Health before the join, and the path's error. Every
	// joining task is ineligible (no tick has run), so the join signal is
	// a SIGSTOP.
	paths := []struct {
		name string
		join func(t *testing.T, fs *FaultSys, fault func(*FaultSys)) (*Runner, Health, error)
	}{
		{"NewRunner", func(t *testing.T, fs *FaultSys, fault func(*FaultSys)) (*Runner, Health, error) {
			fault(fs)
			r, err := NewRunner(Config{Quantum: fq, Sys: fs}, two)
			return r, Health{}, err
		}},
		{"Add", func(t *testing.T, fs *FaultSys, fault func(*FaultSys)) (*Runner, Health, error) {
			r := newFaultRunner(t, fs, Config{}, one)
			before := r.Health()
			fault(fs)
			return r, before, r.Reconfigure(Reconfig{Add: []Task{{ID: 2, Share: 1, PIDs: []int{pid}}}})
		}},
		{"SetPIDs", func(t *testing.T, fs *FaultSys, fault func(*FaultSys)) (*Runner, Health, error) {
			r := newFaultRunner(t, fs, Config{}, one)
			before := r.Health()
			fault(fs)
			return r, before, r.Reconfigure(Reconfig{SetPIDs: map[core.TaskID][]int{1: {10, pid}}})
		}},
		{"refresh", func(t *testing.T, fs *FaultSys, fault func(*FaultSys)) (*Runner, Health, error) {
			r := newFaultRunner(t, fs, Config{}, one)
			before := r.Health()
			fault(fs)
			r.refresh(map[core.TaskID][]int{1: {10, pid}})
			return r, before, nil
		}},
		{"NewRunnerFromState", func(t *testing.T, fs *FaultSys, fault func(*FaultSys)) (*Runner, Health, error) {
			dead := newFaultRunner(t, fs, Config{}, two)
			st := dead.State()
			dead.Release()
			fault(fs)
			r, err := NewRunnerFromState(Config{Sys: fs}, st)
			return r, Health{}, err
		}},
	}
	for _, f := range faults {
		for _, p := range paths {
			if f.restoreOnly && p.name != "NewRunnerFromState" {
				continue
			}
			t.Run(f.name+"/"+p.name, func(t *testing.T) {
				fs := NewFaultSys()
				fs.AddProc(FaultProc{PID: 10, Start: 1})
				fs.AddProc(FaultProc{PID: pid, Start: 3})
				r, before, err := p.join(t, fs, f.apply)
				if p.name == "NewRunner" && f.want.unsignalable == 1 {
					if !errors.Is(err, syscall.EPERM) {
						t.Errorf("NewRunner err = %v, want EPERM", err)
					}
					if got := fs.StoppedPIDs(); len(got) != 0 {
						t.Errorf("failed NewRunner left %v stopped", got)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer r.Release()
				checkTable(t, r, fs) // so a PID without a record is no task's member
				if r.procs[pid] != nil {
					t.Errorf("pid %d is a member after a failed join", pid)
				}
				if fs.IsStopped(pid) {
					t.Errorf("pid %d left stopped after a failed join", pid)
				}
				b, a := countsOf(before), countsOf(r.Health())
				got := counts{a.vanished - b.vanished, a.unsignalable - b.unsignalable, a.reused - b.reused}
				if got != f.want {
					t.Errorf("counter deltas (vanished, unsignalable, reused) = %+v, want %+v", got, f.want)
				}
			})
		}
	}
}

// TestDepartureNeverLeavesStopped: a PID the runner holds stopped is
// resumed when it departs, whether it leaves by a refresh or by Remove.
// It is not stopped after the call or after Release, and the departure
// counts no signal failure.
func TestDepartureNeverLeavesStopped(t *testing.T) {
	cases := []struct {
		name   string
		depart func(r *Runner) error
	}{
		{"refresh", func(r *Runner) error {
			r.refresh(map[core.TaskID][]int{2: {}})
			return nil
		}},
		{"Remove", func(r *Runner) error {
			return r.Reconfigure(Reconfig{Remove: []core.TaskID{2}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFaultSys()
			fs.AddProc(FaultProc{PID: 10, Start: 1})
			fs.AddProc(FaultProc{PID: 20, Start: 2})
			r := newFaultRunner(t, fs, Config{}, []Task{
				{ID: 1, Share: 1, PIDs: []int{10}},
				{ID: 2, Share: 1, PIDs: []int{20}},
			})
			if !fs.IsStopped(20) {
				t.Fatal("pid 20 not stopped before the first tick")
			}
			before := r.Health().SignalFailures
			if err := tc.depart(r); err != nil {
				t.Fatal(err)
			}
			if fs.IsStopped(20) {
				t.Errorf("departed pid 20 left stopped (stopped: %v)", fs.StoppedPIDs())
			}
			checkTable(t, r, fs)
			if got := r.Health().SignalFailures - before; got != 0 {
				t.Errorf("departure added %d SignalFailures, want 0", got)
			}
			r.Release()
			if got := fs.StoppedPIDs(); len(got) != 0 {
				t.Errorf("stopped after Release: %v", got)
			}
		})
	}
}
