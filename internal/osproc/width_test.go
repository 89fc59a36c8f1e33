package osproc

import "testing"

// TestReadDrainWidth: Runner.read reports as a task's drain width the
// members observed in state R, capped at Sys.CPUs. Sleeping, stopped,
// zombie and unreadable members add nothing, and a FaultSys with NCPU 0
// caps at one CPU.
func TestReadDrainWidth(t *testing.T) {
	for _, c := range []struct {
		name    string
		ncpu    int
		members string // one per member: R, S, D, T (stopped behind the runner's back), Z (zombie), E (EINTR)
		want    int
	}{
		{"running", 4, "R", 1},
		{"sleeping", 4, "RS", 1},
		{"disk wait", 4, "RD", 1},
		{"stopped behind the runner's back", 4, "RT", 1},
		{"zombie", 4, "RZ", 1},
		{"unreadable", 4, "RE", 1},
		{"two running", 4, "RR", 2},
		{"capped at the CPUs", 2, "RRR", 2},
		{"NCPU 0 means one CPU", 0, "RRR", 1},
		{"mixed", 8, "RRRSDTZE", 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := NewFaultSys()
			fs.NCPU = c.ncpu
			var pids []int
			for i := range c.members {
				fs.AddProc(FaultProc{PID: 10 + i, Start: 1})
				pids = append(pids, 10+i)
			}
			r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: pids}})
			stepQuantum(fs, r) // admission resumes every member
			for i, st := range []byte(c.members) {
				switch pid := pids[i]; st {
				case 'S', 'D':
					fs.SetState(pid, st)
				case 'T':
					_ = fs.Stop(pid)
				case 'Z':
					fs.Inject(pid, CallRead, FaultZombie)
				case 'E':
					fs.Inject(pid, CallRead, FaultEINTR, FaultEINTR)
				}
			}
			p, alive := r.read(1)
			if !alive {
				t.Fatal("task read as gone")
			}
			if p.Width != c.want {
				t.Errorf("width %d, want %d", p.Width, c.want)
			}
		})
	}
}
