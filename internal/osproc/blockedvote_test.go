package osproc

import (
	"testing"

	"alps/internal/core"
)

// The §2.4 blocked vote for multi-PID principals: PIDs whose stat read
// failed transiently must abstain, not vote "running". Before the fix,
// one unreadable PID forced Blocked=false for the whole principal even
// when every observed PID was blocked, silently suppressing the blocked
// charge.
func TestBlockedVoteAbstention(t *testing.T) {
	pids := []int{500, 501, 502}
	fs := NewFaultSys()
	for _, pid := range pids {
		fs.AddProc(FaultProc{PID: pid, Start: 1, State: 'S'}) // blocked on I/O
	}
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: pids}})
	defer r.Release()
	// Undo the startup suspension out-of-band so reads observe the real
	// 'S' state rather than 'T'.
	for _, pid := range pids {
		_ = fs.Cont(pid)
		r.procs[pid].stopped = false
	}

	// One PID unreadable for the whole quantum (both read attempts race);
	// the two observed PIDs are blocked.
	fs.Inject(501, CallRead, FaultEINTR, FaultEINTR)
	p, ok := r.read(core.TaskID(1))
	if !ok {
		t.Fatal("principal reported dead")
	}
	if !p.Blocked {
		t.Error("one transiently unreadable PID suppressed the principal's blocked vote")
	}

	// Every PID unreadable: nothing was observed, so keep the original
	// no-charge-on-guess behavior.
	for _, pid := range pids {
		fs.Inject(pid, CallRead, FaultEINTR, FaultEINTR)
	}
	p, ok = r.read(core.TaskID(1))
	if !ok {
		t.Fatal("principal reported dead with PIDs merely unreadable")
	}
	if p.Blocked {
		t.Error("blocked charge applied on a guess (zero PIDs observed)")
	}

	// One PID observed running flips the vote regardless of the blocked
	// majority.
	fs.SetState(502, 'R')
	p, ok = r.read(core.TaskID(1))
	if !ok {
		t.Fatal("principal reported dead")
	}
	if p.Blocked {
		t.Error("principal with a running PID voted blocked")
	}
}
