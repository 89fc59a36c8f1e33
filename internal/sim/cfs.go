package sim

import (
	"math"
	"time"
)

// Policy selects the simulated kernel's native scheduling policy. ALPS's
// claim to portability (paper §1: "not requiring modifications to the
// underlying kernel scheduler... highly portable") is testable here: the
// same ALPS process runs unmodified on either policy.
type Policy int

const (
	// PolicyBSD is the 4.4BSD decay-usage scheduler the paper
	// evaluates on (the default).
	PolicyBSD Policy = iota
	// PolicyCFS is a Linux-CFS-style weighted fair scheduler:
	// processes accrue weighted virtual runtime and the runnable
	// process with the least vruntime runs next.
	PolicyCFS
)

// CFS tuning constants, loosely following the Linux defaults.
const (
	// cfsGranularity is the minimum vruntime lead before a tick-time
	// preemption (sched_min_granularity flavor).
	cfsGranularity = 3 * time.Millisecond
	// cfsWakeupGranularity is the lead a waker needs to preempt
	// immediately. Kept small: with a 10 ms tick, a waker that fails
	// this check waits a whole tick for the next preemption point.
	cfsWakeupGranularity = 500 * time.Microsecond
	// cfsSleeperBonus caps how far behind min-vruntime a re-entering
	// process may be placed (half the scheduling latency, as with
	// Linux's GENTLE_FAIR_SLEEPERS): sleepers get priority without
	// starving the runnable.
	cfsSleeperBonus = 3 * time.Millisecond
	// cfsNiceWeightBase is the weight of a nice-0 process.
	cfsNiceWeightBase = 1024
)

// cfsWeight maps a nice value to a load weight (≈×1.25 per nice step,
// as in Linux's prio_to_weight).
func cfsWeight(nice int) float64 {
	return cfsNiceWeightBase / math.Pow(1.25, float64(nice))
}

// cfsInsert puts p into the vruntime-ordered run queue with vruntime
// placement. Linux normalizes a task's vruntime relative to the queue's
// minimum whenever it is dequeued and re-enqueued, so no re-entering task
// — a waking sleeper, a SIGCONT'd stopped process, a new fork — carries
// an ancient vruntime it could monopolize the CPU with, and none lags
// more than the sleeper bonus behind. Ties break by PID for determinism.
func (k *Kernel) cfsInsert(p *proc, sleeper, wake bool) {
	if p.queued {
		return
	}
	if min, ok := k.cfsMinVruntime(); ok {
		if p.vruntime == 0 && !sleeper {
			// New or never-run process: start at the pack, no credit.
			p.vruntime = min
		} else if floor := min - cfsSleeperBonus; p.vruntime < floor {
			p.vruntime = floor
		}
	}
	// Sleeper placement clusters re-entering processes at the same
	// floor vruntime; a genuine waker goes ahead of the entities it
	// ties with (CFS's wakeup preemption exists to favor exactly these),
	// others queue behind their equals.
	i := 0
	for ; i < len(k.cfsq); i++ {
		q := k.cfsq[i]
		if p.vruntime < q.vruntime || (p.vruntime == q.vruntime && wake) {
			break
		}
	}
	k.cfsq = append(k.cfsq, nil)
	copy(k.cfsq[i+1:], k.cfsq[i:])
	k.cfsq[i] = p
	p.queued = true
}

func (k *Kernel) cfsRemove(p *proc) {
	if !p.queued {
		return
	}
	for i, q := range k.cfsq {
		if q == p {
			k.cfsq = append(k.cfsq[:i], k.cfsq[i+1:]...)
			break
		}
	}
	p.queued = false
}

// cfsMinVruntime returns the smallest vruntime among queued and running
// processes.
func (k *Kernel) cfsMinVruntime() (time.Duration, bool) {
	var min time.Duration
	ok := false
	if len(k.cfsq) > 0 {
		min = k.cfsq[0].vruntime
		ok = true
	}
	for i := range k.cpus {
		if p := k.cpus[i].p; p != nil {
			if !ok || p.vruntime < min {
				min = p.vruntime
				ok = true
			}
		}
	}
	return min, ok
}

// cfsCharge advances a running process's weighted virtual runtime.
func (k *Kernel) cfsCharge(p *proc, d time.Duration) {
	p.vruntime += time.Duration(float64(d) * cfsNiceWeightBase / cfsWeight(p.nice))
}

// cfsQueueBeats reports whether the run-queue head should preempt p:
// at tick granularity when its vruntime lead exceeds cfsGranularity, or
// (orEqual, used for waker boosts) cfsWakeupGranularity.
func (k *Kernel) cfsQueueBeats(p *proc, wake bool) bool {
	if len(k.cfsq) == 0 {
		return false
	}
	lead := p.vruntime - k.cfsq[0].vruntime
	if wake {
		return lead > cfsWakeupGranularity
	}
	return lead > cfsGranularity
}
