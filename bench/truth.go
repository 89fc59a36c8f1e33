package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// truth reads delivered CPU, the benchmark's ground truth: the runtime in
// nanoseconds of every thread of every member of each CPU-bound task,
// summed from /proc/<pid>/task/*/schedstat. /proc/<pid>/schedstat alone
// covers only the leader thread and under-counts Go workers.
//
// OnCycle hands the cycle index to a sampler goroutine with a
// non-blocking send, so the windows between samples are the allocation
// cycles without the read landing inside a Step.
type truth struct {
	procRoot string
	members  [][]int // per busy task
	shares   []float64

	kick     chan int
	done     chan struct{}
	stopOnce sync.Once
	// samples and err belong to the sampler goroutine until done closes.
	samples []truthSample
	err     error
	// threadCPU is the sampler thread's own CPU so far (ns), subtracted
	// from the process CPU so the ground truth does not count as ALPS cost.
	threadCPU atomic.Int64
}

type truthSample struct {
	cycle int
	cpu   []int64
}

func newTruth(f *fleet) *truth {
	t := &truth{procRoot: "/proc", kick: make(chan int, 1), done: make(chan struct{})}
	for i, task := range f.tasks {
		if f.busy[i] {
			t.members = append(t.members, task.PIDs)
			t.shares = append(t.shares, float64(task.Share))
		}
	}
	return t
}

// notify asks for a sample at the end of cycle. A cycle that ends while
// the previous sample is still pending is skipped; the gap in cycle
// indices keeps that double window out of the per-cycle statistics.
func (t *truth) notify(cycle int) {
	select {
	case t.kick <- cycle:
	default:
	}
}

// run samples until stop. It holds its OS thread, so RUSAGE_THREAD
// measures the sampler alone, and runs that thread SCHED_FIFO: woken at a
// cycle's end it preempts a spinner at once, where at normal priority it
// would wait up to a scheduler tick while the workload kept running into
// the next cycle's window. Before returning it restores the policy and
// unlocks, which keeps the thread alive for other goroutines: an exiting
// thread would fire Pdeathsig on children it forked.
func (t *truth) run() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer close(t.done)
	if err := setPolicy(schedFIFO, 1); err != nil {
		fmt.Fprintf(os.Stderr, "bench: ground-truth sampler stays at normal priority: %v\n", err)
	} else {
		// Lowering the thread back to the default policy is never refused.
		defer func() { _ = setPolicy(schedOther, 0) }()
	}
	for c := range t.kick {
		cpu, err := t.read()
		if err != nil {
			if t.err == nil {
				t.err = err
			}
			continue
		}
		t.samples = append(t.samples, truthSample{cycle: c, cpu: cpu})
		t.threadCPU.Store(cpuNS(rusageThread))
	}
}

const (
	schedOther = 0
	schedFIFO  = 1
)

// setPolicy sets the calling thread's scheduling policy and priority.
func setPolicy(policy, prio int) error {
	param := struct{ prio int32 }{int32(prio)}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler: %w", errno)
	}
	return nil
}

// stop ends the sampler after it has taken every pending sample. Call it
// once no further Step can run; later calls do nothing.
func (t *truth) stop() {
	t.stopOnce.Do(func() {
		close(t.kick)
		<-t.done
	})
}

// read returns each busy task's delivered CPU so far.
func (t *truth) read() ([]int64, error) {
	out := make([]int64, len(t.members))
	for i, pids := range t.members {
		for _, pid := range pids {
			ns, err := procRuntime(t.procRoot, pid)
			if err != nil {
				return nil, err
			}
			out[i] += ns
		}
	}
	return out, nil
}

// cycleErrors returns the per-cycle RMS share error of every cycle with
// index in [from, to) whose starting and ending samples were both taken.
func (t *truth) cycleErrors(from, to int) []float64 {
	var out []float64
	cpu := make([]float64, len(t.members))
	for i := 1; i < len(t.samples); i++ {
		a, b := t.samples[i-1], t.samples[i]
		if b.cycle != a.cycle+1 || b.cycle < from || b.cycle >= to {
			continue
		}
		for j := range cpu {
			cpu[j] = float64(max(b.cpu[j]-a.cpu[j], 0))
		}
		if e, ok := shareError(cpu, t.shares); ok {
			out = append(out, e)
		}
	}
	return out
}

// procRuntime returns the CPU time (ns) of every live thread of pid.
func procRuntime(procRoot string, pid int) (int64, error) {
	dir := filepath.Join(procRoot, strconv.Itoa(pid), "task")
	d, err := os.Open(dir)
	if err != nil {
		return 0, err
	}
	tids, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return 0, err
	}
	if len(tids) == 0 {
		return 0, fmt.Errorf("%s: no threads", dir)
	}
	var sum int64
	for _, tid := range tids {
		b, err := os.ReadFile(filepath.Join(dir, tid, "schedstat"))
		if errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ESRCH) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		ns, err := parseSchedstat(b)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, tid, err)
		}
		sum += ns
	}
	return sum, nil
}

// parseSchedstat returns the first field of a schedstat line: time spent
// on the CPU, in nanoseconds.
func parseSchedstat(b []byte) (int64, error) {
	f, _, _ := bytes.Cut(bytes.TrimSpace(b), []byte{' '})
	return strconv.ParseInt(string(f), 10, 64)
}

const (
	rusageSelf   = syscall.RUSAGE_SELF
	rusageThread = 1 // RUSAGE_THREAD
)

// cpuNS returns user plus system CPU time (ns) of the process or thread.
func cpuNS(who int) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
