package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"alps/internal/obs"
)

// cpuModel is a one-CPU machine for the dormancy tests. Each quantum the
// CPU is split evenly among the tasks that are eligible (running, in the
// UNIX implementation) and awake; a read reports the CPU a task got since
// its previous read, and a sleeping task reads as blocked.
type cpuModel struct {
	s         *Scheduler
	asleep    func(id TaskID, tick int64) bool
	cum, last map[TaskID]time.Duration
	// onRead, if set, sees every read before the scheduler applies it.
	onRead func(id TaskID, p Progress)
	// exited, if set, reports the tasks that have exited: their reads
	// report them dead.
	exited func(id TaskID, tick int64) bool
}

func newCPUModel(s *Scheduler, asleep func(TaskID, int64) bool) *cpuModel {
	return &cpuModel{s: s, asleep: asleep, cum: map[TaskID]time.Duration{}, last: map[TaskID]time.Duration{}}
}

// step runs one quantum of CPU, then one TickQuantum.
func (m *cpuModel) step() Decision {
	tick := m.s.Tick() + 1
	var run []TaskID
	for _, id := range m.s.TaskIDs() {
		if st, _ := m.s.State(id); st == Eligible && !m.asleep(id, tick) {
			run = append(run, id)
		}
	}
	for i, id := range run {
		slice := q / time.Duration(len(run))
		if i == 0 {
			slice += q % time.Duration(len(run))
		}
		m.cum[id] += slice
	}
	return m.s.TickQuantum(func(id TaskID) (Progress, bool) {
		if m.exited != nil && m.exited(id, tick) {
			return Progress{}, false
		}
		p := Progress{Consumed: m.cum[id] - m.last[id], Blocked: m.asleep(id, tick)}
		m.last[id] = m.cum[id]
		if m.onRead != nil {
			m.onRead(id, p)
		}
		return p, true
	})
}

// sumAllowances checks Σallowance ≡ t_c.
func sumAllowances(t *testing.T, s *Scheduler) {
	t.Helper()
	var sum time.Duration
	for _, id := range s.TaskIDs() {
		a, _ := s.Allowance(id)
		sum += a
	}
	if sum != s.CycleTimeRemaining() {
		t.Fatalf("tick %d: Σallowance %v != t_c %v", s.Tick(), sum, s.CycleTimeRemaining())
	}
}

// TestDormantEntry: a task observed blocked that consumed nothing for a
// whole cycle leaves S at the grant. Its allowance is settled against the
// cycle time, it gets one SIGCONT if it was stopped, reports Eligible,
// and is never stopped while dormant. Task 2 (share 1) is exhausted by
// its first §2.4 charge and stopped before the grant; task 3 (share 6) is
// still eligible there, so its entry is not a flip.
func TestDormantEntry(t *testing.T) {
	log := obs.NewEventLog()
	s := New(Config{Quantum: q, Observer: log})
	for id, share := range []int64{2, 3, 1, 6} {
		if err := s.Add(TaskID(id), share); err != nil {
			t.Fatal(err)
		}
	}
	m := newCPUModel(s, func(id TaskID, _ int64) bool { return id >= 2 })
	var entered *Decision
	for i := 0; i < 40 && entered == nil; i++ {
		d := m.step()
		sumAllowances(t, s)
		if s.Dormant(2) {
			entered = &d
		}
	}
	if entered == nil {
		t.Fatal("a task blocked through a whole cycle never went dormant")
	}
	if !entered.CycleCompleted || !s.Dormant(3) || !slices.Contains(entered.Resume, 2) || slices.Contains(entered.Resume, 3) {
		t.Errorf("entry decision = %+v (task 3 dormant %t), want a cycle grant resuming task 2 and not task 3", *entered, s.Dormant(3))
	}
	for _, id := range []TaskID{2, 3} {
		if st, _ := s.State(id); st != Eligible {
			t.Errorf("dormant task %d state = %v, want eligible", id, st)
		}
		if a, _ := s.Allowance(id); a != 0 {
			t.Errorf("dormant task %d allowance = %v, want 0", id, a)
		}
	}
	if s.TotalShares() != 5 || s.CycleLength() != 5*q || s.NumDormant() != 2 {
		t.Errorf("S = %d, cycle %v, %d dormant; want 5, %v, 2", s.TotalShares(), s.CycleLength(), s.NumDormant(), 5*q)
	}
	var entries []obs.Event
	for _, e := range log.Filter(obs.KindTransition) {
		if e.Reason == obs.ReasonDormant {
			entries = append(entries, e)
		}
	}
	if len(entries) != 2 || entries[0].Task != 2 || entries[1].Task != 3 || !entries[0].Eligible || !entries[1].Eligible {
		t.Fatalf("dormant transitions = %v, want eligible entries for tasks 2 and 3", entries)
	}
	// While they sleep they are read by the watch, never stopped, and
	// never granted.
	for i := 0; i < 60; i++ {
		d := m.step()
		sumAllowances(t, s)
		for _, id := range d.Suspend {
			if id >= 2 {
				t.Fatalf("tick %d: dormant task %d stopped", s.Tick(), id)
			}
		}
	}
	for _, e := range log.Filter(obs.KindGrant) {
		if e.Task >= 2 && e.Tick > entries[0].Tick {
			t.Fatalf("dormant task granted: %v", e)
		}
	}
	// Remove and SetShare on a dormant task leave S alone.
	if err := s.SetShare(2, 7); err != nil || s.TotalShares() != 5 {
		t.Errorf("SetShare on dormant task: err %v, S = %d, want 5", err, s.TotalShares())
	}
	if err := s.Remove(2); err != nil || s.TotalShares() != 5 || s.NumDormant() != 1 {
		t.Errorf("Remove of dormant task: err %v, S = %d, %d dormant; want 5, 1", err, s.TotalShares(), s.NumDormant())
	}
	sumAllowances(t, s)
}

// TestDormantWatchRegimes: a sleeper that has never woken from dormancy
// is read once per nominal cycle, every S quanta. A periodic sleeper —
// one that has woken from dormancy before — is read every quantum while
// such sleepers are no more numerous than the tasks in S, however many
// idle sleepers lie beside it; beyond that it is read like the rest. With
// S empty, every dormant task is read every quantum and no cycle
// completes.
func TestDormantWatchRegimes(t *testing.T) {
	const window = 120
	type rates struct{ idle, periodic float64 }
	// Spinners come first, then idle sleepers, then periodic sleepers,
	// all of share 2. The periodic ones wake for four quanta at tick 60,
	// so each rejoins S once, then sleep for good.
	reads := func(spinners, idle, periodic int) (got rates, cycles int) {
		s := New(Config{Quantum: q})
		n := spinners + idle + periodic
		for i := 0; i < n; i++ {
			if err := s.Add(TaskID(i), 2); err != nil {
				t.Fatal(err)
			}
		}
		isPeriodic := func(id TaskID) bool { return int(id) >= spinners+idle }
		m := newCPUModel(s, func(id TaskID, tick int64) bool {
			return int(id) >= spinners && !(isPeriodic(id) && tick >= 60 && tick < 64)
		})
		for s.Tick() < 64 || s.NumDormant() < idle+periodic {
			if m.step(); s.Tick() > 500 {
				t.Fatalf("%d sleepers never all went dormant", idle+periodic)
			}
		}
		for id := spinners + idle; id < n; id++ {
			if !s.tasks[TaskID(id)].woke {
				t.Fatalf("periodic sleeper %d never woke", id)
			}
		}
		// Reads scheduled while S was larger land up to n·2 quanta out;
		// let them pass so every read in the window follows the final S.
		for i := 0; i < 2*n; i++ {
			m.step()
		}
		c0 := s.Cycles()
		var ni, np int
		m.onRead = func(id TaskID, _ Progress) {
			switch {
			case isPeriodic(id):
				np++
			case int(id) >= spinners:
				ni++
			}
		}
		for i := 0; i < window; i++ {
			m.step()
			sumAllowances(t, s)
		}
		if s.NumDormant() != idle+periodic {
			t.Fatalf("%d of %d sleepers dormant after the window", s.NumDormant(), idle+periodic)
		}
		return rates{float64(ni) / window, float64(np) / window}, s.Cycles() - c0
	}
	// Three spinners of share 2 make S = 6: each idle sleeper is read 20
	// times in the window.
	for _, periodic := range []int{0, 3} {
		got, cycles := reads(3, 7, periodic)
		if want := 7.0 / 6; got.idle != want || cycles == 0 {
			t.Errorf("7 idle beside %d periodic and 3 in S: %.3f idle reads per quantum, want %.3f (one per sleeper per 6 quanta)",
				periodic, got.idle, want)
		}
		if got.periodic != float64(periodic) {
			t.Errorf("%d periodic beside 7 idle and 3 in S: %.3f periodic reads per quantum, want %d", periodic, got.periodic, periodic)
		}
	}
	got, cycles := reads(1, 0, 3)
	if want := 3.0 / 2; got.periodic != want || cycles == 0 {
		t.Errorf("3 periodic beside 1 in S: %.3f reads per quantum, want %.3f (one per sleeper per 2 quanta)", got.periodic, want)
	}
	got, cycles = reads(0, 4, 0)
	if got.idle != 4 || cycles != 0 {
		t.Errorf("all dormant: %.2f reads per quantum and %d cycles, want 4 and 0", got.idle, cycles)
	}
}

// TestDormantWatchSurvivesEmptyS: when the last task in S leaves between
// grants, the dormant tasks are still read within one nominal cycle of
// their previous read, and from then on every quantum. A sleeper that
// wakes rejoins S, and sleepers that exit are reported dead, so the
// scheduler drains to empty. Both tick paths.
func TestDormantWatchSurvivesEmptyS(t *testing.T) {
	for _, reference := range []bool{false, true} {
		t.Run(fmt.Sprintf("reference=%t", reference), func(t *testing.T) {
			s := New(Config{Quantum: q, DisableIndexing: reference})
			for id, share := range []int64{4, 1, 1, 1} {
				if err := s.Add(TaskID(id), share); err != nil {
					t.Fatal(err)
				}
			}
			const never = int64(1) << 62
			wake, exit := never, never
			m := newCPUModel(s, func(id TaskID, tick int64) bool { return id > 0 && (id != 1 || tick < wake) })
			m.exited = func(id TaskID, tick int64) bool { return id > 0 && tick >= exit }
			deferred := func() bool {
				for id := TaskID(1); id <= 3; id++ {
					if !s.Dormant(id) || s.tasks[id].update <= s.Tick()+1 {
						return false
					}
				}
				return true
			}
			// Step to a quantum that completed no cycle and after which every
			// sleeper's next read is more than a quantum away, then remove the
			// spinner there.
			for d := m.step(); d.CycleCompleted || !deferred(); d = m.step() {
				if s.Tick() > 200 {
					t.Fatal("the sleepers never went dormant with deferred reads")
				}
			}
			if err := s.Remove(0); err != nil || s.TotalShares() != 0 {
				t.Fatalf("Remove of the last task in S: err %v, S = %d", err, s.TotalShares())
			}
			removedAt := s.Tick()
			wake = removedAt + 1
			for s.Dormant(1) {
				if m.step(); s.Tick() > removedAt+4 {
					t.Fatalf("the waking sleeper was still dormant %d quanta after S emptied, more than the old nominal cycle", s.Tick()-removedAt)
				}
			}
			if s.TotalShares() != 1 || s.NumDormant() != 2 {
				t.Errorf("S = %d, %d dormant after the sleeper rejoined; want 1, 2", s.TotalShares(), s.NumDormant())
			}
			exit = s.Tick() + 1
			for s.Len() > 0 {
				if m.step(); s.Tick() > exit+4 {
					t.Fatalf("%d tasks left %d quanta after every task exited", s.Len(), s.Tick()-exit)
				}
				sumAllowances(t, s)
			}
		})
	}
}

// TestIdleTenantNoWindfall guards against the idle-tenant windfall
// Gunther documents for Solaris SRM: a tenant back from idleness must get
// its share of what is left of the cycle and no credit for the time it
// slept. Three tenants spin; a fourth with the largest share sleeps for
// at least five cycles, then spins. In the first case the tenant is a
// periodic sleeper (it woke from dormancy once before), so the watch
// reads it every quantum although four idle tasks outnumber the tenants
// in S, and its rejoining read comes the quantum it wakes. In the second
// it wakes for the first time, between two watch reads: it runs
// unwatched, and its rejoin debits exactly what it ran.
func TestIdleTenantNoWindfall(t *testing.T) {
	const tenant, share = TaskID(3), 4
	for _, tc := range []struct {
		name     string
		periodic bool
		idle     int // tasks that sleep throughout
	}{
		{"periodic sleeper watched every quantum", true, 4},
		{"first wake between watch reads", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := obs.NewEventLog()
			var recs []CycleRecord
			s := New(Config{Quantum: q, Observer: log, OnCycle: func(r CycleRecord) { recs = append(recs, r) }})
			for id, sh := range []int64{1, 2, 3, share} {
				if err := s.Add(TaskID(id), sh); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < tc.idle; i++ {
				if err := s.Add(TaskID(10+i), 1); err != nil {
					t.Fatal(err)
				}
			}
			// The tenant is awake in [blip, blip+4) and from wake on.
			const never = int64(1) << 62
			blip, wake := never, never
			m := newCPUModel(s, func(id TaskID, tick int64) bool {
				return id >= 10 || (id == tenant && tick < wake && (tick < blip || tick >= blip+4))
			})
			sleepDormant := func(cycles int) {
				t.Helper()
				for n := 0; n < cycles; {
					if d := m.step(); d.CycleCompleted && s.Dormant(tenant) {
						n++
					}
					sumAllowances(t, s)
					if s.Tick() > 2000 {
						t.Fatalf("tenant never slept %d dormant cycles", cycles)
					}
				}
			}
			sleepDormant(5)
			if tc.periodic {
				// Wake briefly once, so it rejoins S, then sleep again.
				blip = s.Tick() + 1
				sleepDormant(5)
				if !s.tasks[tenant].woke {
					t.Fatal("tenant is not a periodic sleeper after waking once")
				}
			}
			// Wake two quanta after a grant. A periodic sleeper's watch
			// catches it the quantum it wakes; on a first wake its next
			// read is up to one nominal cycle away, and it runs unwatched
			// until then.
			for !m.step().CycleCompleted {
			}
			m.step()
			m.step()
			wake = s.Tick() + 1
			ranAtWake := m.cum[tenant]

			// Capture t_c and S the moment the rejoining read arrives.
			var tc0 time.Duration
			var s0 int64
			var ran time.Duration
			m.onRead = func(id TaskID, p Progress) {
				if id == tenant && s.Dormant(tenant) {
					tc0, s0, ran = s.CycleTimeRemaining(), s.TotalShares(), p.Consumed
				}
			}
			for s.Dormant(tenant) {
				m.step()
				sumAllowances(t, s)
			}
			m.onRead = nil
			rejoinTick := s.Tick()
			if got := m.cum[tenant] - ranAtWake; ran != got {
				t.Fatalf("rejoin read reported %v, want everything run while dormant (%v)", ran, got)
			}
			if tc.periodic && (rejoinTick != wake || ran > q) {
				t.Fatalf("periodic sleeper rejoined at tick %d after running %v, want the tick it woke (%d) and at most one quantum", rejoinTick, ran, wake)
			}
			if !tc.periodic && ran < 2*q/time.Duration(len(s.TaskIDs())) {
				t.Fatalf("first-wake tenant ran %v before its rejoining read, want more than one quantum's share: it woke between reads", ran)
			}
			prorated := tc0 * share / time.Duration(s0)
			var woke, measured *obs.Event
			for _, e := range log.Events() {
				if e.Tick != rejoinTick || e.Task != int64(tenant) {
					continue
				}
				switch {
				case e.Kind == obs.KindTransition && e.Reason == obs.ReasonWoke:
					woke = &e
				case e.Kind == obs.KindMeasure:
					measured = &e
				}
			}
			if woke == nil || measured == nil {
				t.Fatalf("no woke transition and measure at the rejoin tick %d", rejoinTick)
			}
			if woke.Allowance != prorated {
				t.Errorf("rejoin allowance %v, want ⌊t_c·share/S⌋ = ⌊%v·%d/%d⌋ = %v", woke.Allowance, tc0, share, s0, prorated)
			}
			if measured.Allowance != prorated-ran {
				t.Errorf("allowance after the rejoining read %v, want %v − %v run while dormant = %v",
					measured.Allowance, prorated, ran, prorated-ran)
			}
			if prorated >= share*q {
				t.Errorf("rejoin allowance %v is not prorated below a full grant %v", prorated, share*q)
			}

			// The return cycle is the one whose record covers the rejoin
			// tick; everything the tenant ran while dormant lands in it,
			// since watch reads charge nothing. After the rejoin the
			// tenant gets at most what is left of its allowance, plus the
			// one quantum by which any task may overrun before its next
			// measurement (§2.2; the next grant's carry-over debits it).
			c0 := slices.IndexFunc(recs, func(r CycleRecord) bool { return r.Tick >= rejoinTick })
			for c0 < 0 || len(recs) < c0+21 {
				m.step()
				sumAllowances(t, s)
				if s.Dormant(tenant) {
					t.Fatal("spinning tenant went dormant again")
				}
				if c0 < 0 && len(recs) > 0 && recs[len(recs)-1].Tick >= rejoinTick {
					c0 = len(recs) - 1
				}
			}
			consumed := func(r CycleRecord) (mine, all time.Duration) {
				for _, ct := range r.Tasks {
					all += ct.Consumed
					if ct.ID == tenant {
						mine = ct.Consumed
					}
				}
				return mine, all
			}
			first, _ := consumed(recs[c0])
			t.Logf("rejoin at tick %d: t_c %v, S %d, allowance %v, ran while dormant %v; return cycle gave %v",
				rejoinTick, tc0, s0, prorated, ran, first)
			if after, left := first-ran, max(prorated-ran, 0); after > left+q {
				t.Errorf("return cycle gave the tenant %v after its rejoin, more than its remaining allowance %v plus one quantum", after, left)
			}
			// Over the next 20 cycles its fraction is share/S within one
			// quantum per cycle (S = 10 over the four tenants).
			var mine, all time.Duration
			for _, r := range recs[c0+1 : c0+21] {
				a, b := consumed(r)
				mine += a
				all += b
			}
			dev := mine - all*share/10
			t.Logf("next 20 cycles: tenant %v of %v, %v off its share", mine, all, dev)
			if dev > 20*q || dev < -20*q {
				t.Errorf("tenant got %v of %v over 20 cycles, %v off its 4/10 share (bound %v)", mine, all, dev, 20*q)
			}
		})
	}
}

// TestDormantSnapshot: the dormant flag survives a checkpoint and a
// restored scheduler continues identically; a reader that ignores the
// flag keeps completing cycles; a checkpoint written before dormancy
// existed still loads; and validation rejects a dormant task that is
// ineligible or holds an allowance.
func TestDormantSnapshot(t *testing.T) {
	s := New(Config{Quantum: q})
	for id, share := range []int64{2, 3, 1} {
		if err := s.Add(TaskID(id), share); err != nil {
			t.Fatal(err)
		}
	}
	asleep := func(id TaskID, tick int64) bool { return id == 2 && tick < 60 }
	m := newCPUModel(s, asleep)
	for !s.Dormant(2) {
		m.step()
	}
	m.step()
	snap := s.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"dormant":true`) || strings.Count(string(raw), `"dormant"`) != 1 {
		t.Fatalf("checkpoint JSON does not carry exactly the one dormant flag: %s", raw)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	r := New(Config{Quantum: q})
	if err := r.Restore(back); err != nil {
		t.Fatal(err)
	}
	if !r.Dormant(2) || r.TotalShares() != s.TotalShares() || r.NumDormant() != 1 {
		t.Fatalf("restored: dormant %t, S %d, %d dormant; want true, %d, 1", r.Dormant(2), r.TotalShares(), r.NumDormant(), s.TotalShares())
	}
	mr := newCPUModel(r, asleep)
	for id := range m.cum {
		mr.cum[id], mr.last[id] = m.cum[id], m.last[id]
	}
	for i := 0; i < 80; i++ {
		if da, db := m.step(), mr.step(); !reflect.DeepEqual(da, db) {
			t.Fatalf("tick %d diverged after restore:\n got %+v\nwant %+v", s.Tick(), db, da)
		}
	}
	if !reflect.DeepEqual(r.Snapshot(), s.Snapshot()) {
		t.Error("restored scheduler's state diverged")
	}

	// A build that predates dormancy ignores the dormant key: it counts
	// the task in S with allowance 0 and falls back to §2.4. The task's
	// next read is stored as a tick at most one nominal cycle away (a
	// dormant task is never left without one), so that reader measures it
	// and keeps completing cycles instead of waiting on an allowance no
	// read will ever drain.
	for _, ts := range snap.Tasks {
		if ts.Dormant && (ts.Update <= snap.Count+1 || ts.Update > snap.Count+s.TotalShares()) {
			t.Fatalf("dormant task %d stored with next read at tick %d, want a deferred read within one nominal cycle of tick %d (S = %d)",
				ts.ID, ts.Update, snap.Count, s.TotalShares())
		}
	}
	older := snap
	older.Tasks = append([]TaskSnapshot(nil), snap.Tasks...)
	for i := range older.Tasks {
		older.Tasks[i].Dormant = false
	}
	o := New(Config{Quantum: q})
	if err := o.Restore(older); err != nil {
		t.Fatal(err)
	}
	mo := newCPUModel(o, func(id TaskID, _ int64) bool { return id == 2 })
	for i := 0; i < 100; i++ {
		mo.step()
		sumAllowances(t, o)
	}
	if got := o.Cycles() - older.Cycles; got < 10 {
		t.Errorf("restored with the dormant flag ignored: %d cycles in 100 quanta, want at least 10", got)
	}

	// A checkpoint written before dormancy existed has no dormant key.
	var legacy Snapshot
	if err := json.Unmarshal([]byte(strings.ReplaceAll(string(raw), `"dormant":true,`, "")), &legacy); err != nil {
		t.Fatal(err)
	}
	l := New(Config{Quantum: q})
	if err := l.Restore(legacy); err != nil || l.NumDormant() != 0 {
		t.Errorf("checkpoint without dormant flags: restore error %v, %d dormant", err, l.NumDormant())
	}

	for name, mut := range map[string]func(*Snapshot){
		"dormant with allowance": func(sn *Snapshot) {
			sn.Tasks[2].Allowance += q
			sn.CycleTime += q
		},
		"dormant ineligible": func(sn *Snapshot) { sn.Tasks[2].Eligible = false },
	} {
		bad := snap
		bad.Tasks = append([]TaskSnapshot(nil), snap.Tasks...)
		mut(&bad)
		if err := New(Config{Quantum: q}).Restore(bad); err == nil || !strings.Contains(err.Error(), "dormant") {
			t.Errorf("%s: Restore = %v, want a dormant-task validation error", name, err)
		}
	}
}

// TestRejoinProrationOverflow: when ⌊t_c·share/S⌋ does not fit in a
// Duration, a rejoining task gets a fresh cycle's share·Q, as Add gives,
// and Σallowance ≡ t_c still holds.
func TestRejoinProrationOverflow(t *testing.T) {
	const big = time.Duration(1) << 62
	s := New(Config{Quantum: q})
	err := s.Restore(Snapshot{Quantum: q, Count: 10, CycleTime: big, Tasks: []TaskSnapshot{
		{ID: 1, Share: 1, Eligible: true, Allowance: big, Update: 11},
		{ID: 2, Share: 4, Eligible: true, Dormant: true, Update: 11},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.TickQuantum(func(id TaskID) (Progress, bool) { return Progress{}, true })
	if s.Dormant(2) {
		t.Fatal("a runnable read did not rejoin the dormant task")
	}
	if a, _ := s.Allowance(2); a != 4*q {
		t.Errorf("rejoin allowance %v, want share·Q = %v", a, 4*q)
	}
	sumAllowances(t, s)
}
