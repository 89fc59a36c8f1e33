package sim

import (
	"fmt"
	"slices"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

// CostModel gives the CPU cost of each primary ALPS operation, charged to
// the simulated ALPS process. Defaults come from Table 1 of the paper
// (measured on a 2.2 GHz Pentium 4 running FreeBSD 4.8).
type CostModel struct {
	// TimerEvent is the cost of receiving one timer event.
	TimerEvent time.Duration
	// MeasureBase + n·MeasurePerProc is the cost of measuring the CPU
	// time of n processes.
	MeasureBase    time.Duration
	MeasurePerProc time.Duration
	// Signal is the cost of sending one signal.
	Signal time.Duration
	// ScanPerProc is the per-process cost of enumerating the system's
	// processes during a resource-principal membership refresh (§5's
	// kvm_getprocs). Not part of Table 1; defaults to MeasurePerProc.
	ScanPerProc time.Duration
}

// PaperCosts returns Table 1's measured operation times.
func PaperCosts() CostModel {
	return CostModel{
		TimerEvent:     9020 * time.Nanosecond,  // 9.02 µs
		MeasureBase:    1100 * time.Nanosecond,  // 1.1 µs
		MeasurePerProc: 17400 * time.Nanosecond, // 17.4 µs
		Signal:         970 * time.Nanosecond,   // 0.97 µs
		ScanPerProc:    17400 * time.Nanosecond,
	}
}

// AlpsTask binds a core task ID and share to the simulated processes it
// covers. A single-process task models the paper's §3–§4 experiments; a
// multi-process task is a §5 resource principal.
type AlpsTask struct {
	ID    core.TaskID
	Share int64
	Pids  []PID
}

// AlpsConfig configures an ALPS instance running inside the simulation.
type AlpsConfig struct {
	// Quantum is the ALPS quantum Q.
	Quantum time.Duration
	// Cost is the operation cost model; zero value means free
	// operations (useful for algorithm-only tests).
	Cost CostModel
	// DisableLazySampling turns off the §2.3 optimization.
	DisableLazySampling bool
	// OnCycle receives the per-cycle consumption log (§3.1).
	OnCycle func(core.CycleRecord)
	// StartOffset delays the first quantum boundary, decorrelating
	// concurrent ALPS instances (the paper notes distinct ALPSs'
	// cycles are not synchronized).
	StartOffset time.Duration
	// RefreshEvery, if positive, re-resolves task membership that
	// often via Refresh (§5 updates each user's process list once per
	// second).
	RefreshEvery time.Duration
	// Refresh returns the current membership of each task. Tasks
	// absent from the result keep their membership.
	Refresh func(k *Kernel) map[core.TaskID][]PID
	// Observer, if non-nil, receives the core algorithm's decision
	// events, stamped with the kernel's virtual time (see
	// StampObserver). The same Observer attached to an osproc.Runner
	// sees the identical event vocabulary, making decision traces
	// directly comparable across substrates.
	Observer obs.Observer
}

// AlpsProc is an ALPS scheduler running as an ordinary simulated process.
// It owns a core.Scheduler and translates its decisions into SIGSTOP /
// SIGCONT on the workload, paying simulated CPU for every timer event,
// measurement, and signal per its CostModel.
type AlpsProc struct {
	k      *Kernel
	cfg    AlpsConfig
	sched  *core.Scheduler
	pid    PID
	tracer obs.Observer // virtual-time-stamped observer (nil when disabled)

	targets map[core.TaskID][]PID
	lastCPU map[PID]time.Duration

	nextFire    time.Duration
	lastRefresh time.Duration
	inSleep     bool // an open sleep phase span awaits the next firing

	// Stats.
	timerEvents   int64
	measurements  int64
	signalsSent   int64
	missedFirings int64
}

// StartALPS spawns an ALPS process into the kernel controlling the given
// tasks. Workload processes spawned with SpawnStopped begin executing
// when ALPS first marks them eligible (all tasks start ineligible with a
// full allowance, per §2.2, so that happens on the first quantum).
func StartALPS(k *Kernel, cfg AlpsConfig, tasks []AlpsTask) (*AlpsProc, error) {
	if cfg.Quantum <= 0 {
		return nil, fmt.Errorf("sim: ALPS quantum must be positive, got %v", cfg.Quantum)
	}
	a := &AlpsProc{
		k:       k,
		cfg:     cfg,
		targets: make(map[core.TaskID][]PID),
		lastCPU: make(map[PID]time.Duration),
	}
	onCycle := cfg.OnCycle
	if onCycle != nil {
		// The paper's accuracy instrumentation (§3.1) logs the CPU
		// time each process truly consumed during the cycle. The
		// algorithm's own lazily-sampled values attribute consumption
		// to the cycle in which it happened to be measured, which
		// would evaluate the sampling rather than the schedule — so
		// re-read true cumulative CPU at each cycle boundary for the
		// log. This read is evaluation-only and is not charged to the
		// ALPS process.
		instLast := make(map[core.TaskID]time.Duration)
		onCycle = func(rec core.CycleRecord) {
			for i := range rec.Tasks {
				id := rec.Tasks[i].ID
				var cum time.Duration
				for _, wp := range a.targets[id] {
					if info, ok := k.Info(wp); ok {
						cum += info.CPU
					}
				}
				rec.Tasks[i].Consumed = cum - instLast[id]
				instLast[id] = cum
			}
			cfg.OnCycle(rec)
		}
	}
	a.tracer = StampObserver(k, cfg.Observer)
	a.sched = core.New(core.Config{
		Quantum:             cfg.Quantum,
		DisableLazySampling: cfg.DisableLazySampling,
		OnCycle:             onCycle,
		Observer:            a.tracer,
	})
	for _, t := range tasks {
		if err := a.sched.Add(t.ID, t.Share); err != nil {
			return nil, err
		}
		a.targets[t.ID] = append([]PID(nil), t.Pids...)
	}
	a.nextFire = k.Now() + cfg.StartOffset
	a.lastRefresh = k.Now()
	// Nice 0: no special priority, the paper's headline constraint.
	a.pid = k.Spawn("alps", 0, BehaviorFunc(a.next))
	return a, nil
}

// PID returns the ALPS process's own PID.
func (a *AlpsProc) PID() PID { return a.pid }

// Scheduler exposes the underlying core scheduler for inspection.
func (a *AlpsProc) Scheduler() *core.Scheduler { return a.sched }

// CPU returns the CPU time the ALPS process has consumed — the numerator
// of the paper's overhead metric (§3.2).
func (a *AlpsProc) CPU() time.Duration {
	info, ok := a.k.Info(a.pid)
	if !ok {
		return 0
	}
	return info.CPU
}

// Stats reports operation counts since start.
func (a *AlpsProc) Stats() (timerEvents, measurements, signals, missedFirings int64) {
	return a.timerEvents, a.measurements, a.signalsSent, a.missedFirings
}

// next is the ALPS process's Behavior: sleep to the next quantum
// boundary, then run one invocation of the algorithm, paying its CPU cost
// and applying its decisions.
// phase brackets the ALPS process's own control phases (signal, sleep)
// in the event stream; the core emits the in-quantum phases itself.
func (a *AlpsProc) phase(k obs.Kind, p obs.Phase) {
	if a.tracer != nil {
		a.tracer.Observe(obs.Event{Kind: k, Tick: a.sched.Tick(), Task: -1, N: int(p)})
	}
}

func (a *AlpsProc) next(k *Kernel, pid PID) Action {
	now := k.Now()
	if now < a.nextFire {
		if !a.inSleep {
			a.inSleep = true
			a.phase(obs.KindPhaseBegin, obs.PhaseSleep)
		}
		return Action{Sleep: a.nextFire - now}
	}
	if a.inSleep {
		a.inSleep = false
		a.phase(obs.KindPhaseEnd, obs.PhaseSleep)
	}
	a.timerEvents++
	cost := a.cfg.Cost.TimerEvent

	var pending []sigOrder
	// Resource-principal membership refresh (§5).
	if a.cfg.Refresh != nil && a.cfg.RefreshEvery > 0 && now-a.lastRefresh >= a.cfg.RefreshEvery {
		a.lastRefresh = now
		cost += time.Duration(len(k.Pids())) * a.cfg.Cost.ScanPerProc
		pending = append(pending, a.applyRefresh(a.cfg.Refresh(k))...)
	}

	measured := 0
	dec := a.sched.TickQuantum(func(id core.TaskID) (core.Progress, bool) {
		pids := a.targets[id]
		var consumed time.Duration
		alive := false
		blocked := true
		width := 0 // members Running or Ready: the CPUs the task can use
		for _, wp := range pids {
			info, ok := k.Info(wp)
			if !ok {
				continue
			}
			alive = true
			measured++
			consumed += info.CPUTicked - a.lastCPU[wp]
			a.lastCPU[wp] = info.CPUTicked
			if info.State != Sleeping {
				blocked = false
			}
			if info.State == Running || info.State == Ready {
				width++
			}
		}
		if !alive {
			delete(a.targets, id)
			return core.Progress{}, false
		}
		return core.Progress{Consumed: consumed, Blocked: blocked, Width: min(width, k.NCPU())}, true
	})
	if measured > 0 {
		a.measurements += int64(measured)
		cost += a.cfg.Cost.MeasureBase + time.Duration(measured)*a.cfg.Cost.MeasurePerProc
	}

	for _, id := range dec.Suspend {
		for _, wp := range a.targets[id] {
			pending = append(pending, sigOrder{wp, SIGSTOP})
		}
	}
	for _, id := range dec.Resume {
		for _, wp := range a.targets[id] {
			pending = append(pending, sigOrder{wp, SIGCONT})
		}
	}
	cost += time.Duration(len(pending)) * a.cfg.Cost.Signal
	a.signalsSent += int64(len(pending))

	// Advance the timer grid; coalesce firings we are too late for,
	// like overlapping SIGALRMs.
	a.nextFire += a.cfg.Quantum
	for a.nextFire <= now {
		a.nextFire += a.cfg.Quantum
		a.missedFirings++
	}

	return Action{
		Run: cost,
		OnDone: func(k *Kernel) {
			// Signals land after the invocation's CPU cost has been paid,
			// so the signal phase sits at the quantum's virtual end.
			a.phase(obs.KindPhaseBegin, obs.PhaseSignal)
			for _, s := range pending {
				k.Signal(s.pid, s.sig)
			}
			a.phase(obs.KindPhaseEnd, obs.PhaseSignal)
		},
	}
}

type sigOrder struct {
	pid PID
	sig Sig
}

// applyRefresh installs new task memberships the way the runner's join
// and leave do, and returns the signals the change needs. A departing
// member of an ineligible task, which ALPS holds stopped, is resumed
// and its reading dropped. A joiner is read when it is adopted, so only
// what it runs afterwards is charged, and is aligned with its task:
// stopped if the task is ineligible, resumed if the task is eligible
// and the joiner is stopped. Departures go first, so a process that
// moves between tasks ends aligned with its new one.
func (a *AlpsProc) applyRefresh(m map[core.TaskID][]PID) []sigOrder {
	ids := make([]core.TaskID, 0, len(m))
	for id := range m {
		if _, err := a.sched.State(id); err == nil {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	ineligible := func(id core.TaskID) bool {
		st, _ := a.sched.State(id)
		return st == core.Ineligible
	}
	var orders []sigOrder
	for _, id := range ids {
		for _, p := range a.targets[id] {
			if slices.Contains(m[id], p) {
				continue
			}
			if ineligible(id) {
				orders = append(orders, sigOrder{p, SIGCONT})
			}
			delete(a.lastCPU, p)
		}
	}
	for _, id := range ids {
		for _, p := range m[id] {
			if slices.Contains(a.targets[id], p) {
				continue
			}
			info, ok := a.k.Info(p)
			if !ok {
				continue
			}
			a.lastCPU[p] = info.CPUTicked
			switch {
			case ineligible(id):
				orders = append(orders, sigOrder{p, SIGSTOP})
			case info.State == Stopped:
				orders = append(orders, sigOrder{p, SIGCONT})
			}
		}
		a.targets[id] = append([]PID(nil), m[id]...)
	}
	return orders
}
