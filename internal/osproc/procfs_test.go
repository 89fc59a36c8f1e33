package osproc

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseStat(t *testing.T) {
	// A representative Linux stat line: pid 123, comm "cat", state R,
	// utime 15 stime 7 (fields 14 and 15).
	raw := "123 (cat) R 1 123 123 0 -1 4194304 100 0 0 0 15 7 0 0 20 0 1 0 100 1000000 100 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0"
	st, err := parseStat(123, raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.PID != 123 || st.Comm != "cat" || st.State != 'R' {
		t.Errorf("parsed %+v", st)
	}
	if st.CPU != 22*ClockTick {
		t.Errorf("CPU = %v, want %v", st.CPU, 22*ClockTick)
	}
	if st.Blocked() {
		t.Error("running process reported blocked")
	}
}

// TestParseStatEvilComm: comm may contain spaces and parentheses; parsing
// must anchor on the last ')'.
func TestParseStatEvilComm(t *testing.T) {
	raw := "42 (my (evil) proc) S 1 42 42 0 -1 0 0 0 0 0 3 4 0 0 20 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
	st, err := parseStat(42, raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.Comm != "my (evil) proc" {
		t.Errorf("comm = %q", st.Comm)
	}
	if st.State != 'S' || !st.Blocked() {
		t.Errorf("state = %c blocked=%v", st.State, st.Blocked())
	}
	if st.CPU != 7*ClockTick {
		t.Errorf("CPU = %v", st.CPU)
	}
}

func TestParseStatMalformed(t *testing.T) {
	for _, raw := range []string{
		"",
		"123 cat R 1",
		"123 (cat",
		"123 (cat) R 1 2",
		"123 (cat) R 1 123 123 0 -1 4194304 100 0 0 0 x 7 0 0 20 0 1 0 0 0 0 0",
		"123 (cat) R 1 123 123 0 -1 4194304 100 0 0 0 15 y 0 0 20 0 1 0 0 0 0 0",
	} {
		if _, err := parseStat(123, raw); err == nil {
			t.Errorf("parseStat(%q) should fail", raw)
		}
	}
}

func TestBlockedStates(t *testing.T) {
	for state, want := range map[byte]bool{'R': false, 'S': true, 'D': true, 'T': false, 'Z': false} {
		if got := (Stat{State: state}).Blocked(); got != want {
			t.Errorf("Blocked(%c) = %v, want %v", state, got, want)
		}
	}
}

func requireProc(t *testing.T) {
	t.Helper()
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc on this system")
	}
}

func TestReadStatSelf(t *testing.T) {
	requireProc(t)
	st, err := ReadStat(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if st.PID != os.Getpid() {
		t.Errorf("PID = %d", st.PID)
	}
	if st.State != 'R' && st.State != 'S' {
		t.Errorf("unexpected state %c for self", st.State)
	}
	if !strings.Contains(st.Comm, "test") && st.Comm == "" {
		t.Logf("comm = %q (informational)", st.Comm)
	}
}

func TestReadStatNoSuchPid(t *testing.T) {
	requireProc(t)
	if _, err := ReadStat(1 << 22); err == nil {
		t.Error("expected error for absurd pid")
	}
}

func TestPidsOfUserIncludesSelf(t *testing.T) {
	requireProc(t)
	pids, err := PidsOfUser(uint32(os.Getuid()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pid := range pids {
		if pid == os.Getpid() {
			found = true
		}
	}
	if !found {
		t.Errorf("own pid %d not in PidsOfUser(%d): %v", os.Getpid(), os.Getuid(), pids)
	}
}

func TestClockTickValue(t *testing.T) {
	if ClockTick != 10*time.Millisecond {
		t.Errorf("ClockTick = %v; the USER_HZ assumption changed", ClockTick)
	}
}
