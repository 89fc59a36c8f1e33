package osproc

import (
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"alps/internal/core"
)

// statFDOpen reports whether pid has a descriptor in the sampling table.
func statFDOpen(pid int) bool {
	statFDs.RLock()
	defer statFDs.RUnlock()
	_, ok := statFDs.m[pid]
	return ok
}

// threadStat is a fixture stat line with the given state and num_threads.
func threadStat(pid int, state string, threads int) string {
	return itoa(pid) + " (w) " + state + " 1 1 1 0 -1 0 0 0 0 0 5 0 0 0 20 0 " + itoa(threads) +
		" 0 7 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
}

// writeTaskStat writes the fixture's /proc/<pid>/task/<tid>/stat.
func writeTaskStat(t *testing.T, root string, pid, tid int, state string) {
	t.Helper()
	dir := filepath.Join(root, itoa(pid), "task", itoa(tid))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stat"), []byte(threadStat(tid, state, 2)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBlockedVoteSeesRunningThread: a multi-threaded process whose leader
// sleeps while another thread runs is running for the §2.4 vote; only
// when every thread sleeps is it blocked.
func TestBlockedVoteSeesRunningThread(t *testing.T) {
	root := withFakeProc(t)
	writeStat(t, root, 300, threadStat(300, "S", 2))
	writeTaskStat(t, root, 300, 300, "S")
	writeTaskStat(t, root, 300, 301, "R")

	st, err := RealSys{}.ReadStat(300)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != 'R' {
		t.Errorf("state = %c, want R (thread 301 runs)", st.State)
	}
	r := newFixtureRunner(t, map[core.TaskID][]int{1: {300}})
	if p, ok := r.read(1); !ok || p.Blocked {
		t.Errorf("read = %+v ok=%v, want a live, unblocked task", p, ok)
	}

	writeTaskStat(t, root, 300, 301, "S")
	if p, ok := r.read(1); !ok || !p.Blocked {
		t.Errorf("read = %+v ok=%v, want blocked once every thread sleeps", p, ok)
	}

	// A single-threaded sleeper is never scanned: its task directory is
	// not even consulted.
	writeStat(t, root, 310, threadStat(310, "S", 1))
	writeTaskStat(t, root, 310, 311, "R")
	if st, err := (RealSys{}).ReadStat(310); err != nil || st.State != 'S' {
		t.Errorf("single-threaded sleeper: state %c err %v, want S", st.State, err)
	}
}

// TestStatFDTableBudget: past the descriptor budget a read falls back to
// an uncached open, pread and close, and still returns the stat.
func TestStatFDTableBudget(t *testing.T) {
	root := withFakeProc(t)
	statFDs.Lock()
	old := statFDs.max
	statFDs.max = 1
	statFDs.Unlock()
	t.Cleanup(func() {
		statFDs.Lock()
		statFDs.max = old
		statFDs.Unlock()
	})
	writeStat(t, root, 401, threadStat(401, "R", 1))
	writeStat(t, root, 402, threadStat(402, "S", 1))
	for _, pid := range []int{401, 402} {
		st, err := RealSys{}.ReadStat(pid)
		if err != nil || st.Start != 7 {
			t.Fatalf("pid %d: %+v, %v", pid, st, err)
		}
	}
	if !statFDOpen(401) || statFDOpen(402) {
		t.Errorf("table holds 401=%v 402=%v, want only the first within budget", statFDOpen(401), statFDOpen(402))
	}
}

// TestDescendantsLeavesTableEmpty: the /proc scan reads every process
// uncached, so it opens no sampling descriptor.
func TestDescendantsLeavesTableEmpty(t *testing.T) {
	requireProc(t)
	flushStatFDs()
	if _, err := Descendants(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	statFDs.RLock()
	n := len(statFDs.m)
	statFDs.RUnlock()
	if n != 0 {
		t.Errorf("Descendants left %d descriptors in the table", n)
	}
}

// TestStatFDTableConcurrent drives the table the way sampler workers and
// a Forget on the loop goroutine do, for the race detector: reads of the
// same PIDs from several goroutines while another closes their entries.
func TestStatFDTableConcurrent(t *testing.T) {
	requireProc(t)
	cmd := exec.Command("sleep", "1000")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot spawn sleep: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		flushStatFDs()
	})
	pids := []int{os.Getpid(), cmd.Process.Pid}
	errs := make(chan error, 4)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			var err error
			for i := 0; i < 500 && err == nil; i++ {
				_, err = RealSys{}.ReadStat(pids[i%len(pids)])
			}
			errs <- err
		}()
	}
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			RealSys{}.Forget(pids[i%len(pids)])
		}
	}()
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Errorf("read of a live process failed: %v", err)
		}
	}
	<-done
}

// TestPinnedStatFDReportsGone: a descriptor held on a process that exits
// and is reaped fails ESRCH, and the entry is closed.
func TestPinnedStatFDReportsGone(t *testing.T) {
	requireProc(t)
	cmd := exec.Command("sleep", "1000")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot spawn sleep: %v", err)
	}
	pid := cmd.Process.Pid
	defer flushStatFDs()
	if _, err := (RealSys{}).ReadStat(pid); err != nil {
		t.Fatal(err)
	}
	if !statFDOpen(pid) {
		t.Fatal("first read opened no descriptor")
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	_, err := RealSys{}.ReadStat(pid)
	if err != syscall.ESRCH || classify(err) != errGone {
		t.Errorf("read of a reaped process: %v, want ESRCH", err)
	}
	if statFDOpen(pid) {
		t.Error("descriptor of a reaped process left open")
	}
}
