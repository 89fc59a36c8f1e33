package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"alps/internal/obs"
)

// The indexed scheduler (the default O(due)-work path over the timer
// wheel) must be observationally identical to the retained reference
// implementation (Config.DisableIndexing): same Decisions, byte-identical
// obs event stream, same externally visible task state. These tests run
// the two side by side on randomized workloads — mid-run admissions,
// removals, deaths, re-weighting, quantum reconfiguration, blocked tasks,
// sleepers that go dormant and wake, drain widths from 1 to 4, and
// snapshot/restore round-trips — and fail on the first divergence.

// scriptOp is one step of a pre-generated workload script. The script is
// generated once per seed and applied to both schedulers, so the two runs
// see exactly the same inputs.
type scriptOp struct {
	kind    int // 0 = tick, 1 = add, 2 = remove, 3 = setShare, 4 = setQuantum, 5 = restore self
	id      TaskID
	share   int64
	quantum time.Duration
	pick    int // index into Tasks() for remove/setShare
}

// equivRun applies a script to a fresh scheduler and returns everything
// observable about the run.
type equivRun struct {
	events    []obs.Event
	decisions []Decision
	tasks     []TaskID
	state     map[TaskID]string // id -> "state/allowance/share/dormant"
	cycleTime time.Duration
	cycles    int
	count     int64
	cover     map[string]bool // the dormancyCases this run reached
	regs      []ReplayTask    // the script's admissions, for Replay
}

// dormancyCases names the parts of the dormancy rule a run can reach.
// TestIndexedMatchesReference fails unless its seeds reach every one, so
// the property cannot silently stop exercising them.
var dormancyCases = []string{
	"entered", "woke", // a dormant / woke transition
	"periodic sleeper watched every quantum", "watch deferred", // how a watch read was rescheduled
	"removed", "reshared", // Remove / SetShare on a dormant task
	"requantized", "restored", // SetQuantum / self-restore with a task dormant
	"all dormant", // every registered task dormant at once
}

// sleepPhase reports whether task id sleeps at tick under seed. Half the
// task IDs alternate a sleep phase of 20–60 quanta (blocked, consuming
// nothing: long enough to sleep through whole cycles and go dormant) with
// a run phase of 5–20 quanta, so a sleeper often goes dormant, wakes, and
// goes dormant again as a periodic sleeper within one script.
func sleepPhase(seed, tick int64, id TaskID) bool {
	r := rand.New(rand.NewSource(seed ^ int64(id)<<32 ^ 0x5eed))
	if r.Intn(2) == 0 {
		return false
	}
	sleep, run := 20+r.Int63n(40), 5+r.Int63n(15)
	return (tick+r.Int63n(sleep+run))%(sleep+run) < sleep
}

// equivMode selects which of the two TickQuantum implementations a
// script runs against.
type equivMode int

const (
	modeWheel equivMode = iota // indexed, timer-wheel due index (default)
	modeReference
)

func (m equivMode) String() string {
	if m == modeWheel {
		return "wheel"
	}
	return "reference"
}

// copyDecision deep-copies a Decision: TickQuantum's result is backed by
// scheduler-owned scratch valid only until the next tick, and these runs
// retain every Decision for the final comparison. Nil fields stay nil so
// shape comparisons remain exact.
func copyDecision(d Decision) Decision {
	d.Resume = append([]TaskID(nil), d.Resume...)
	d.Suspend = append([]TaskID(nil), d.Suspend...)
	d.Measured = append([]TaskID(nil), d.Measured...)
	d.Dead = append([]TaskID(nil), d.Dead...)
	return d
}

func runScript(t *testing.T, seed int64, script []scriptOp, mode equivMode) equivRun {
	t.Helper()
	log := obs.NewEventLog()
	s := New(Config{
		Quantum:         q,
		Observer:        log,
		DisableIndexing: mode == modeReference,
	})
	if (mode == modeReference) == s.indexed {
		t.Fatalf("mode %v produced indexed=%v", mode, s.indexed)
	}
	// Progress and death are deterministic functions of (seed, tick, id),
	// not of the request order, so a scheduler that measures the wrong
	// task set diverges visibly instead of dragging the oracle with it.
	prog := func(tick int64, id TaskID) (Progress, bool) {
		r := rand.New(rand.NewSource(seed ^ tick<<20 ^ int64(id)))
		if sleepPhase(seed, tick, id) {
			// A dormant sleeper may be read every quantum; at the 1/40
			// rate below it would die within a few cycles.
			if r.Intn(400) == 0 {
				return Progress{}, false
			}
			return Progress{Blocked: true}, true
		}
		if r.Intn(40) == 0 {
			return Progress{}, false // task died
		}
		return Progress{
			Consumed: time.Duration(r.Int63n(int64(2 * q))),
			Blocked:  r.Intn(8) == 0,
			Width:    1 + r.Intn(4),
		}, true
	}
	var decisions []Decision
	var regs []ReplayTask
	cover := map[string]bool{}
	mark := func(c string, ok bool) {
		if ok {
			cover[c] = true
		}
	}
	for _, op := range script {
		switch op.kind {
		case 1:
			if s.Add(op.id, op.share) == nil {
				regs = append(regs, ReplayTask{ID: op.id, Share: op.share, Tick: s.Tick()})
			}
		case 2:
			if ids := s.Tasks(); len(ids) > 1 {
				id := ids[op.pick%len(ids)]
				mark("removed", s.Dormant(id))
				_ = s.Remove(id)
			}
		case 3:
			if ids := s.Tasks(); len(ids) > 0 {
				id := ids[op.pick%len(ids)]
				mark("reshared", s.Dormant(id))
				_ = s.SetShare(id, op.share)
			}
		case 4:
			mark("requantized", s.NumDormant() > 0)
			_ = s.SetQuantum(op.quantum)
		case 5:
			mark("restored", s.NumDormant() > 0)
			if err := s.Restore(s.Snapshot()); err != nil {
				t.Fatalf("seed %d: self-restore: %v", seed, err)
			}
		default:
			d := s.TickQuantum(func(id TaskID) (Progress, bool) {
				return prog(s.Tick(), id)
			})
			for _, id := range d.Measured {
				if tk, ok := s.tasks[id]; ok && tk.dormant {
					mark("watch deferred", tk.update > s.count+1)
					mark("periodic sleeper watched every quantum", tk.woke && tk.update == s.count+1 && s.totalShares > 1)
				}
			}
			mark("all dormant", s.Len() > 0 && s.NumDormant() == s.Len())
			decisions = append(decisions, copyDecision(d))
		}
	}
	for _, e := range log.Events() {
		mark("entered", e.Reason == obs.ReasonDormant)
		mark("woke", e.Reason == obs.ReasonWoke)
		mark("narrowed", e.Kind == obs.KindPostpone && e.Wake-e.Tick < ceilDiv(e.Allowance, s.cfg.Quantum))
	}
	out := equivRun{
		events:    log.Events(),
		decisions: decisions,
		tasks:     s.Tasks(),
		state:     make(map[TaskID]string),
		cycleTime: s.CycleTimeRemaining(),
		cycles:    s.Cycles(),
		count:     s.Tick(),
		cover:     cover,
		regs:      regs,
	}
	for _, id := range out.tasks {
		st, _ := s.State(id)
		al, _ := s.Allowance(id)
		sh, _ := s.Share(id)
		// update is deliberately excluded: the reference recomputes
		// ineligible tasks' wake ticks every quantum while the indexed
		// path leaves them stale — unobservable by design, since both
		// stay ≤ count until the grant sweep that recomputes them.
		out.state[id] = fmt.Sprintf("%v/%v/%d/%t", st, al, sh, s.Dormant(id))
	}
	return out
}

func genScript(rng *rand.Rand) []scriptOp {
	n := 2 + rng.Intn(5)
	var script []scriptOp
	for i := 0; i < n; i++ {
		script = append(script, scriptOp{kind: 1, id: TaskID(i), share: 1 + int64(rng.Intn(9))})
	}
	steps := 100 + rng.Intn(150)
	nextID := TaskID(100)
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(20); {
		case r == 0:
			script = append(script, scriptOp{kind: 1, id: nextID, share: 1 + int64(rng.Intn(9))})
			nextID++
		case r == 1:
			script = append(script, scriptOp{kind: 2, pick: rng.Intn(64)})
		case r == 2:
			script = append(script, scriptOp{kind: 3, share: 1 + int64(rng.Intn(9)), pick: rng.Intn(64)})
		case r == 3:
			script = append(script, scriptOp{kind: 4, quantum: q * time.Duration(1+rng.Intn(4))})
		case r == 4:
			script = append(script, scriptOp{kind: 5})
		default:
			script = append(script, scriptOp{kind: 0})
		}
	}
	return script
}

// equivCompare fails (returning false) on the first observable
// divergence between a candidate run and the reference-path oracle.
func equivCompare(t *testing.T, seed int64, mode equivMode, got, ref equivRun) bool {
	t.Helper()
	if !reflect.DeepEqual(got.events, ref.events) {
		i := 0
		for i < len(got.events) && i < len(ref.events) && got.events[i] == ref.events[i] {
			i++
		}
		t.Logf("seed %d: %v event stream diverges from reference at %d (of %d/%d):", seed, mode, i, len(got.events), len(ref.events))
		lo, hi := i-3, i+3
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= hi; j++ {
			var a, b any
			if j < len(got.events) {
				a = got.events[j]
			}
			if j < len(ref.events) {
				b = ref.events[j]
			}
			t.Logf("  [%d] %v=%+v reference=%+v", j, mode, a, b)
		}
		return false
	}
	if !reflect.DeepEqual(got.decisions, ref.decisions) {
		t.Logf("seed %d: %v decisions diverge from reference", seed, mode)
		return false
	}
	if !reflect.DeepEqual(got.tasks, ref.tasks) ||
		!reflect.DeepEqual(got.state, ref.state) ||
		got.cycleTime != ref.cycleTime || got.cycles != ref.cycles || got.count != ref.count {
		t.Logf("seed %d: %v final state diverges:\n%v:       %+v\nreference: %+v", seed, mode, mode, got, ref)
		return false
	}
	return true
}

// TestIndexedMatchesReference is the tentpole equivalence proof: on
// randomized workload scripts, the indexed scheduler and the reference
// scheduler produce identical Decision sequences, byte-identical event
// streams, and the same final task partition and bookkeeping. The scripts
// include sleepers, and the test fails if too few seeds enter dormancy or
// any part of the dormancy rule goes unexercised, so the property cannot
// go vacuous. Each seed's ticks and admissions alone, run again, must
// also come back byte-identical from core.Replay, which reads the drain
// widths from the measure events; it fails unless some seed's widths
// shortened a postponement.
func TestIndexedMatchesReference(t *testing.T) {
	const seeds = 100
	reached := map[string]int{} // seeds reaching each of dormancyCases
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		script := genScript(rng)
		ref := runScript(t, seed, script, modeReference)
		for c := range ref.cover {
			reached[c]++
		}
		if !equivCompare(t, seed, modeWheel, runScript(t, seed, script, modeWheel), ref) {
			return false
		}
		// Replay re-admits tasks but cannot remove, reshare, requantize
		// or restore, so it replays the script without those operations.
		var replayable []scriptOp
		for _, op := range script {
			if op.kind <= 1 {
				replayable = append(replayable, op)
			}
		}
		run := runScript(t, seed, replayable, modeWheel)
		replayed, err := Replay(Config{Quantum: q}, run.regs, run.events)
		if err != nil {
			t.Logf("seed %d: replay: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(replayed, run.events) {
			t.Logf("seed %d: replayed stream differs from the captured one", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: seeds}); err != nil {
		t.Fatal(err)
	}
	// About 90% of seeds enter dormancy; the rarest case, a periodic
	// sleeper watched every quantum, is reached by about a fifth.
	if reached["entered"] < seeds/2 {
		t.Errorf("only %d of %d seeds entered dormancy, want at least %d", reached["entered"], seeds, seeds/2)
	}
	for _, c := range dormancyCases {
		if reached[c] == 0 {
			t.Errorf("no seed of %d reached dormancy case %q", seeds, c)
		}
	}
	if reached["narrowed"] == 0 {
		t.Errorf("no seed of %d postponed a read by less than ⌈A/Q⌉", seeds)
	}
}

// TestIndexedMatchesReferenceEager pins the DisableLazySampling ⇒
// reference-path coupling: with eager sampling the two configurations are
// literally the same code path, and the streams must still match.
func TestIndexedMatchesReferenceEager(t *testing.T) {
	for _, disable := range []bool{false, true} {
		s := New(Config{Quantum: q, DisableLazySampling: true, DisableIndexing: disable})
		if s.indexed {
			t.Fatalf("DisableLazySampling must force the reference path (DisableIndexing=%v)", disable)
		}
	}
}

// TestDueTasksMatchesMeasured: DueBatch, read from the Reader's first
// call, is exactly the set stage 1 measures, and it is empty outside
// TickQuantum.
func TestDueTasksMatchesMeasured(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(Config{Quantum: q})
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			if err := s.Add(TaskID(i), 1+int64(rng.Intn(9))); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 150; step++ {
			if b := s.DueBatch(); len(b) != 0 {
				t.Logf("seed %d step %d: DueBatch %v outside TickQuantum", seed, step, b)
				return false
			}
			var due, dead []TaskID
			d := s.TickQuantum(func(id TaskID) (Progress, bool) {
				if due == nil {
					due = append([]TaskID{}, s.DueBatch()...)
				}
				r := rand.New(rand.NewSource(seed ^ s.Tick()<<18 ^ int64(id)))
				if r.Intn(50) == 0 {
					dead = append(dead, id)
					return Progress{}, false
				}
				return Progress{Consumed: time.Duration(r.Int63n(int64(2 * q)))}, true
			})
			// Measured ∪ Dead is exactly what stage 1 visited.
			visited := append(append([]TaskID{}, d.Measured...), dead...)
			for i := 1; i < len(visited); i++ { // insertion sort; tiny
				for j := i; j > 0 && visited[j] < visited[j-1]; j-- {
					visited[j], visited[j-1] = visited[j-1], visited[j]
				}
			}
			if !reflect.DeepEqual(due, visited) && !(len(due) == 0 && len(visited) == 0) {
				t.Logf("seed %d step %d: DueBatch %v but stage 1 visited %v", seed, step, due, visited)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
