package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"alps"
)

// End-to-end crash safety: whatever way the controller dies — an orderly
// SIGTERM, a hangup, a closed stdout or a panic mid-cycle — no workload
// process may be left SIGSTOPped.

func requireE2E(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("needs Linux /proc")
	}
}

func buildAlps(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "alps")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func spawnShellSpinner(t *testing.T) int {
	t.Helper()
	cmd := exec.Command("/bin/sh", "-c", "while :; do :; done")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	return cmd.Process.Pid
}

// waitNotStopped fails the test if any of the given processes is still
// in the stopped state once the grace period runs out. A process that
// exited counts as not frozen.
func waitNotStopped(t *testing.T, pids ...int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		frozen := ""
		for _, pid := range pids {
			st, err := alps.ReadStat(pid)
			if err != nil {
				continue
			}
			if st.State == 'T' {
				frozen = fmt.Sprintf("pid %d still stopped", pid)
			}
		}
		if frozen == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workload left SIGSTOPped after controller exit: %s", frozen)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitStopped waits until pid is SIGSTOPped, so that an exit which skips
// Release leaves it frozen for waitNotStopped to catch.
func waitStopped(t *testing.T, pid int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("pid %d to be SIGSTOPped", pid), 5*time.Second, func() bool {
		st, err := alps.ReadStat(pid)
		return err == nil && st.State == 'T'
	})
}

// waitCleanExit waits for alps to exit after why, and fails unless it
// exited 0 and wrote the health line on the way out.
func waitCleanExit(t *testing.T, cmd *exec.Cmd, done <-chan error, why string, stderr *syncBuffer) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("alps exited with %v on %s, want success\nstderr:\n%s", err, why, stderr.String())
		}
	case <-time.After(5 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("alps did not exit on %s", why)
	}
	if !strings.Contains(stderr.String(), "alps: health:") {
		t.Errorf("stderr missing health snapshot:\n%s", stderr.String())
	}
}

func TestCrashSafetySIGTERM(t *testing.T) {
	requireE2E(t)
	bin := buildAlps(t)
	p1 := spawnShellSpinner(t)
	p2 := spawnShellSpinner(t)

	cmd, _, errBuf, done := startAlps(t, bin, "attach", "-q", "20ms",
		fmt.Sprintf("%d:1", p1), fmt.Sprintf("%d:3", p2))
	time.Sleep(2 * time.Second)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitCleanExit(t, cmd, done, "SIGTERM", errBuf)
	waitNotStopped(t, p1, p2)
}

// TestCrashSafetySIGHUP: without -config there is nothing to reload, so
// a hangup stops the run as SIGTERM does. Go's default action for an
// unhandled SIGHUP exits without running Release.
func TestCrashSafetySIGHUP(t *testing.T) {
	requireE2E(t)
	bin := buildAlps(t)
	p1 := spawnShellSpinner(t)
	p2 := spawnShellSpinner(t)

	cmd, _, errBuf, done := startAlps(t, bin, "attach", "-q", "20ms",
		fmt.Sprintf("%d:1", p1), fmt.Sprintf("%d:20", p2))
	waitStopped(t, p1)
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitCleanExit(t, cmd, done, "SIGHUP", errBuf)
	waitNotStopped(t, p1, p2)
}

// TestCrashSafetyClosedStdout is "alps -log | head -c 1": once the
// reader of stdout is gone, the next cycle line fails with EPIPE and the
// run stops as on SIGTERM. Go's default action for SIGPIPE on stdout
// exits without running Release. A client hanging up mid-response on
// the HTTP listener raises SIGPIPE too, and must not stop the run.
func TestCrashSafetyClosedStdout(t *testing.T) {
	requireE2E(t)
	bin := buildAlps(t)
	p1 := spawnShellSpinner(t)
	p2 := spawnShellSpinner(t)

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	cmd := exec.Command(bin, "attach", "-log", "-http", "127.0.0.1:0", "-q", "20ms",
		fmt.Sprintf("%d:1", p1), fmt.Sprintf("%d:20", p2))
	cmd.Stdout = pw
	errBuf := &syncBuffer{}
	cmd.Stderr = errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	defer func() {
		_ = cmd.Process.Kill()
	}()

	var addr string
	waitFor(t, "listening announcement", 5*time.Second, func() bool {
		m := listenRe.FindStringSubmatch(errBuf.String())
		if m != nil {
			addr = m[1]
		}
		return m != nil
	})
	// Hang up on a streaming response: the server's next writes to the
	// socket fail with EPIPE and raise SIGPIPE. The trace streams for
	// one second, so that and a margin cover every write.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /debug/pprof/trace?seconds=1 HTTP/1.1\r\nHost: alps\r\n\r\n")
	conn.Close()
	time.Sleep(1500 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("alps exited (%v) when an HTTP client hung up\nstderr:\n%s", err, errBuf.String())
	default:
	}

	if _, err := pr.Read(make([]byte, 1)); err != nil {
		t.Fatalf("no cycle line on stdout: %v", err)
	}
	waitStopped(t, p1)
	pr.Close()
	waitCleanExit(t, cmd, done, "a closed stdout", errBuf)
	waitNotStopped(t, p1, p2)
}

func TestCrashSafetyPanic(t *testing.T) {
	requireE2E(t)
	bin := buildAlps(t)
	p1 := spawnShellSpinner(t)
	p2 := spawnShellSpinner(t)

	cmd := exec.Command(bin, "attach", "-q", "20ms",
		fmt.Sprintf("%d:1", p1), fmt.Sprintf("%d:3", p2))
	cmd.Env = append(os.Environ(), "ALPS_PANIC_AFTER_CYCLES=3")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Errorf("alps exited successfully despite injected panic\nstderr:\n%s", errBuf.String())
		}
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("alps did not exit after injected panic")
	}
	if !strings.Contains(errBuf.String(), "panic") {
		t.Errorf("stderr does not report the panic:\n%s", errBuf.String())
	}
	waitNotStopped(t, p1, p2)
}

// TestAttachAllGoneAtStartup: attaching to PIDs that are already dead
// must fail fast with a clear message, not spin on an empty schedule.
func TestAttachAllGoneAtStartup(t *testing.T) {
	requireE2E(t)
	bin := buildAlps(t)
	// Spawn and immediately reap a process to obtain a dead PID.
	probe := exec.Command("/bin/true")
	if err := probe.Run(); err != nil {
		t.Fatal(err)
	}
	dead := probe.Process.Pid
	out, err := exec.Command(bin, "attach", "-q", "20ms", fmt.Sprintf("%d:1", dead)).CombinedOutput()
	if err == nil {
		t.Fatalf("attach to dead pid succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "no live target process") {
		t.Errorf("missing clear error message, got:\n%s", out)
	}
}
