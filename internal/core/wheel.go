package core

// Hierarchical timer wheel for the stage-1 due index (§2.3 wake ticks).
//
// The PR-5 min-heap made stage 1 O(due·log n) per quantum: each push and
// pop pays a sift over the live entry set. At hundreds of thousands of
// member processes the log factor and the cache-hostile sift walks are a
// measurable slice of the quantum, and — worse — the heap's per-push
// comparisons grow with fleet size even when the due set does not. A
// timing wheel makes both operations amortized O(1) and independent of
// N: wake ticks are integers that only ever advance, so they hash
// perfectly into slots.
//
// Geometry: wheelLevels levels of wheelSlots slots each. Level 0 holds
// entries due within the next wheelSlots ticks at 1-tick granularity;
// each higher level covers wheelSlots× the span below it at wheelSlots×
// coarser granularity. Entries beyond the top level's horizon (64³ =
// 262144 ticks ≈ 44 minutes at Q=10ms) sit in an unsorted overflow list
// that is re-homed into the wheel every span(1) ticks — long before any
// of its entries could come due, since membership there requires a wake
// at least a full horizon away.
//
// The cursor advances one tick per quantum (the scheduler's count), so
// draining is: empty the level-0 slot the cursor points at, and on
// slot-block boundaries cascade the next higher level's slot down.
// Entries are never removed in place: stale entries (task removed,
// re-measured, or turned ineligible) are discarded lazily at drain time
// by the caller's validation, and the scheduler compacts the whole index
// when stales outnumber live entries (see compactDue).
//
// Ordering: a drain emits slot contents in insertion order, which is
// NOT globally sorted. That is fine by construction — the scheduler
// collects the whole due batch for a tick and sorts it by TaskID before
// any measurement or event emission, so wheel order never reaches the
// event stream.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
)

// wheelSpan returns the tick span covered by levels 0..l-1: 64^l.
func wheelSpan(l int) int64 { return 1 << (uint(l) * wheelBits) }

// dueWheel is the stage-1 due-task index: a multiset of (wake tick,
// task) entries with lazy invalidation, held in a hierarchical timing
// wheel.
type dueWheel struct {
	cur   int64 // next tick to drain; entries with wake < cur are in past
	n     int
	slots [wheelLevels][wheelSlots][]dueEntry
	// past holds entries pushed with an already-elapsed wake (re-armed
	// prefetch batches, restores); the next drain empties it.
	past []dueEntry
	// over holds entries beyond the wheel horizon, re-homed by cascade
	// every span(1) ticks.
	over []dueEntry
}

func newDueWheel() *dueWheel { return &dueWheel{} }

// len returns the number of entries held (live + stale).
func (w *dueWheel) len() int { return w.n }

// reset empties the wheel and re-anchors it so that cur is the next tick
// a drain will service (used by Restore and compaction).
func (w *dueWheel) reset(cur int64) {
	for l := range w.slots {
		for i := range w.slots[l] {
			w.slots[l][i] = w.slots[l][i][:0]
		}
	}
	w.past = w.past[:0]
	w.over = w.over[:0]
	w.cur = cur
	w.n = 0
}

// push schedules one entry. Entries with wake ticks already in the past
// are emitted by the next drain.
func (w *dueWheel) push(e dueEntry) {
	w.n++
	d := e.wake - w.cur
	if d < 0 {
		w.past = append(w.past, e)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		if d < wheelSpan(l+1) {
			idx := (e.wake >> (uint(l) * wheelBits)) & wheelMask
			w.slots[l][idx] = append(w.slots[l][idx], e)
			return
		}
	}
	w.over = append(w.over, e)
}

// drain removes every entry whose wake is <= tick, appending them to buf
// (in no particular order) and returning it. Ticks passed to successive
// drains must not decrease except via reset.
func (w *dueWheel) drain(tick int64, buf []dueEntry) []dueEntry {
	if len(w.past) > 0 {
		// Monotonic-tick contract: everything in past has wake < cur and
		// cur-1 <= tick, so all of it is due.
		buf = append(buf, w.past...)
		w.n -= len(w.past)
		w.past = w.past[:0]
	}
	for w.cur <= tick {
		idx := w.cur & wheelMask
		if es := w.slots[0][idx]; len(es) > 0 {
			buf = append(buf, es...)
			w.n -= len(es)
			w.slots[0][idx] = es[:0]
		}
		w.cur++
		w.cascade()
	}
	return buf
}

// cascade redistributes higher-level slots downward when the cursor
// crosses their block boundaries, and re-homes overflow entries that now
// fit within the horizon. Each entry cascades at most wheelLevels times
// over its lifetime, so the per-tick cost is amortized O(1).
func (w *dueWheel) cascade() {
	if w.cur&wheelMask != 0 {
		return
	}
	w.flush(1)
	if (w.cur>>wheelBits)&wheelMask != 0 {
		return
	}
	w.flush(2)
	if len(w.over) == 0 {
		return
	}
	keep := w.over[:0]
	for _, e := range w.over {
		if e.wake-w.cur < wheelSpan(wheelLevels) {
			w.n--
			w.push(e)
		} else {
			keep = append(keep, e)
		}
	}
	w.over = keep
}

// flush re-pushes the contents of level l's slot at the cursor into
// lower levels. Every entry in the slot has a delta below span(l), so a
// re-push always lands strictly below level l and never appends to the
// slice being iterated.
func (w *dueWheel) flush(l int) {
	idx := (w.cur >> (uint(l) * wheelBits)) & wheelMask
	es := w.slots[l][idx]
	if len(es) == 0 {
		return
	}
	w.slots[l][idx] = es[:0]
	for _, e := range es {
		w.n--
		w.push(e)
	}
}
