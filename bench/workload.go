package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"alps/internal/core"
	"alps/internal/osproc"
)

// marker is argv[0] of every workload process. It lets a run find the
// survivors of an earlier, killed run before it starts (see survivors).
const marker = "alps-bench-load"

const (
	shPath    = "/bin/sh"
	sleepPath = "/usr/bin/sleep"
	spinLoop  = "while :; do :; done"
)

// workload is one fixed population of processes. Every workload runs in a
// closed loop: the control loop's timer re-arms only after each Step ends.
type workload struct {
	name string
	// seconds is the default measured length of the untraced run.
	seconds time.Duration
	spawn   func(f *fleet, rng *rand.Rand, o options) error
}

var workloads = []*workload{
	// The paper's headline case: frequent flips and ~2 reads per Step, so
	// the obs and core costs are not hidden behind /proc.
	{name: "linear10", seconds: 60 * time.Second, spawn: spawnLinear(false)},
	// Same shares, run by multi-threaded Go workers: the leader thread's
	// state drives the §2.4 blocked vote, so sampling fixes show here and
	// should not move linear10.
	{name: "linear10-threads", seconds: 60 * time.Second, spawn: spawnLinear(true)},
	// The real-substrate scale case: /proc sampling, signalling, the O(due)
	// index and 1010-task checkpoints do the work. 75 s gives ≥100 cycles.
	{name: "idle-fleet", seconds: 75 * time.Second, spawn: spawnIdleFleet},
	// §5 principals: group signalling, multi-member reads, /proc scans for
	// the Descendants refresh, and principals that can use both CPUs.
	{name: "principals", seconds: 60 * time.Second, spawn: spawnPrincipals},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fleet owns a workload's processes. Each process the benchmark starts
// leads its own process group, so close can kill whole trees.
type fleet struct {
	devnull *os.File
	groups  []int
	// members lists every workload PID, for the stopped-state check.
	members []int
	tasks   []osproc.Task
	// busy marks the CPU-bound tasks: only they enter the share error and
	// the ground-truth CPU.
	busy []bool
	// idle holds the PIDs (each its own PGID) of processes that only sleep.
	idle map[int]bool
	// refresh, when set, re-resolves task membership as cmd/alps spawn
	// -children does.
	refresh func() map[core.TaskID][]int
}

func newFleet() (*fleet, error) {
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		return nil, err
	}
	return &fleet{devnull: devnull, idle: make(map[int]bool)}, nil
}

// start execs path with the marker as argv[0] in a new process group.
// Pdeathsig takes the process down with the benchmark if it is killed
// before close runs.
func (f *fleet) start(path string, args ...string) (int, error) {
	fd := f.devnull.Fd()
	pid, err := syscall.ForkExec(path, append([]string{marker}, args...), &syscall.ProcAttr{
		Env:   []string{"PATH=/usr/bin:/bin"},
		Files: []uintptr{fd, fd, fd},
		Sys:   &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL},
	})
	if err != nil {
		return 0, fmt.Errorf("start %s: %w", path, err)
	}
	f.groups = append(f.groups, pid)
	return pid, nil
}

func (f *fleet) addTask(pids []int, pgid int, share int64, busy bool) {
	f.tasks = append(f.tasks, osproc.Task{ID: core.TaskID(len(f.tasks)), Share: share, PIDs: pids, PGID: pgid})
	f.busy = append(f.busy, busy)
	f.members = append(f.members, pids...)
}

// close kills every process group, then reaps the children and — as the
// child subreaper — any orphaned grandchildren, until none is left.
func (f *fleet) close() error {
	for _, g := range f.groups {
		_ = syscall.Kill(-g, syscall.SIGKILL) // ESRCH: the group is already gone
	}
	f.devnull.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
		switch {
		case errors.Is(err, syscall.ECHILD):
			return nil
		case errors.Is(err, syscall.EINTR), pid > 0:
			continue
		case err != nil:
			return fmt.Errorf("reap workload: %w", err)
		case time.Now().After(deadline):
			return errors.New("reap workload: processes still running after SIGKILL")
		}
		time.Sleep(time.Millisecond)
	}
}

// setSubreaper makes this process adopt orphaned descendants, so the
// children of a killed principal are reaped here rather than left to an
// init that may not reap them.
func setSubreaper() error {
	const prSetChildSubreaper = 36
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// survivors lists live processes whose argv[0] is the workload marker:
// leftovers of an earlier run that would skew this one.
func survivors(procRoot string) ([]int, error) {
	entries, err := os.ReadDir(procRoot)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(procRoot, e.Name(), "cmdline"))
		if err != nil {
			continue // exited while scanning
		}
		if arg0, _, _ := bytes.Cut(b, []byte{0}); string(arg0) == marker {
			out = append(out, pid)
		}
	}
	return out, nil
}

// stopped returns the PIDs among pids that are in the stopped state 'T'.
func stopped(pids []int) []int {
	var out []int
	for _, pid := range pids {
		if st, err := osproc.ReadStat(pid); err == nil && st.State == 'T' {
			out = append(out, pid)
		}
	}
	return out
}

// spawnLinear starts ten single-member tasks with shares 1..10, shuffled
// by the seed: /bin/sh spinners, or the multi-threaded alps-spin. Table 2's
// Linear10 (1, 3, …, 19) has the same shape at S=100; S=55 completes 1.8×
// as many cycles per run, which the per-cycle error needs to be steady.
func spawnLinear(threads bool) func(*fleet, *rand.Rand, options) error {
	return func(f *fleet, rng *rand.Rand, o options) error {
		if threads && o.spin == "" {
			return errors.New("linear10-threads needs the alps-spin binary (-spin)")
		}
		shares := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		rng.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		for _, s := range shares {
			var pid int
			var err error
			if threads {
				pid, err = f.start(o.spin)
			} else {
				pid, err = f.start(shPath, "-c", spinLoop)
			}
			if err != nil {
				return err
			}
			f.addTask([]int{pid}, pid, s, true)
		}
		return nil
	}
}

// spawnIdleFleet starts 1000 sleepers (100 in quick mode) and 10 spinners,
// slot i holding share i%8+1. The seed picks which slots spin; spinner k
// takes a slot of share k%8+1, so the busy shares are the same every seed.
func spawnIdleFleet(f *fleet, rng *rand.Rand, o options) error {
	const spinners = 10
	sleepers := 1000
	if o.quick {
		sleepers = 100
	}
	n := sleepers + spinners
	busy := make([]bool, n)
	perm := rng.Perm(n)
	for k := 0; k < spinners; k++ {
		for _, i := range perm {
			if !busy[i] && i%8 == k%8 {
				busy[i] = true
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		args := []string{sleepPath, "86400"}
		if busy[i] {
			args = []string{shPath, "-c", spinLoop}
		}
		pid, err := f.start(args[0], args[1:]...)
		if err != nil {
			return err
		}
		if !busy[i] {
			f.idle[pid] = true
		}
		f.addTask([]int{pid}, pid, int64(i%8+1), busy[i])
	}
	return nil
}

// spawnPrincipals starts five §5 principals: each a sh parent leading its
// own process group with 8, 4, 2, 1 or 1 spinner children and share 5, 4,
// 3, 2 or 1 — the bigger the principal, the bigger its share — with
// membership refreshed from the process tree every second. The seed orders
// them; pairing sizes with shares at random instead would make each seed a
// different workload (a share-5 principal of one spinner idles a CPU at the
// end of every cycle, a share-5 principal of eight does not).
func spawnPrincipals(f *fleet, rng *rand.Rand, _ options) error {
	children := []int{8, 4, 2, 1, 1}
	shares := []int64{5, 4, 3, 2, 1}
	rng.Shuffle(len(shares), func(i, j int) {
		shares[i], shares[j] = shares[j], shares[i]
		children[i], children[j] = children[j], children[i]
	})
	roots := make([]int, len(children))
	for i, n := range children {
		script := fmt.Sprintf(`i=0; while [ $i -lt %d ]; do (%s) & i=$((i+1)); done; wait`, n, spinLoop)
		root, err := f.start(shPath, "-c", script)
		if err != nil {
			return err
		}
		pids, err := awaitTree(root, n+1)
		if err != nil {
			return err
		}
		roots[i] = root
		f.addTask(pids, root, shares[i], true)
	}
	f.refresh = func() map[core.TaskID][]int {
		m := make(map[core.TaskID][]int, len(roots))
		for i, root := range roots {
			if pids, err := osproc.Descendants(root); err == nil {
				m[core.TaskID(i)] = pids
			}
		}
		return m
	}
	return nil
}

// awaitTree waits until root's process tree has n members.
func awaitTree(root, n int) ([]int, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		pids, err := osproc.Descendants(root)
		if err != nil {
			return nil, err
		}
		if len(pids) == n {
			return pids, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("principal %d: %d of %d processes started", root, len(pids), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
