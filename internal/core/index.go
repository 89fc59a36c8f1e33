package core

import "sort"

// Index data structures for the O(due)-work quantum loop (§4.2 scaling).
//
// The seed implementation walked every registered task on every quantum:
// stage 1 scanned all N tasks to find the due ones, stage 3 scanned all N
// to re-partition, the per-tick sortOrder() re-sorted the ID slice after
// any membership change, and Remove spliced with a linear scan. The §2.3
// optimization saved the *measurements* but not the scan, so per-quantum
// cost stayed Θ(N) and the breakdown threshold (control-loop work ≈ the
// quantum) arrived at tens of processes. Two structures make the
// per-quantum cost proportional to the work that actually exists:
//
//   - orderedIDs keeps the registered TaskIDs sorted at all times, with
//     binary-search insertion and removal, so deterministic ID-ordered
//     iteration (grant sweeps, cycle records, the public Tasks API) needs
//     no per-tick re-sort and Remove needs no linear scan;
//   - dueWheel (wheel.go) is a timing wheel of dueEntry (wake tick, task)
//     pairs, so stage 1 drains exactly the tasks whose §2.3 measurement
//     is due, instead of scanning all N to find them.
//
// Due entries are invalidated lazily: a task that turned ineligible, was
// removed, or was rescheduled simply leaves its stale entry behind, and
// the drain path discards any entry whose (wake, task) no longer matches
// the live task state. Every push corresponds to one §2.3 scheduling
// decision, so the wheel holds at most one live entry per eligible task
// plus not-yet-emitted stale entries; the scheduler rebuilds the index
// outright when stales outnumber live entries (compactDue), bounding it
// at O(live) even under membership-churn storms. The reference path
// (Config.DisableIndexing) is the oracle the wheel is property-tested
// against.

// orderedIDs is an always-sorted set of TaskIDs.
type orderedIDs struct {
	ids []TaskID
}

// insert adds id, keeping the slice sorted. Duplicate insertion is a
// caller bug (Add rejects duplicates first) and would corrupt iteration,
// so it is not defended against.
func (o *orderedIDs) insert(id TaskID) {
	i := sort.Search(len(o.ids), func(j int) bool { return o.ids[j] >= id })
	o.ids = append(o.ids, 0)
	copy(o.ids[i+1:], o.ids[i:])
	o.ids[i] = id
}

// remove deletes id if present.
func (o *orderedIDs) remove(id TaskID) {
	i := sort.Search(len(o.ids), func(j int) bool { return o.ids[j] >= id })
	if i < len(o.ids) && o.ids[i] == id {
		o.ids = append(o.ids[:i], o.ids[i+1:]...)
	}
}

// all returns the sorted IDs. The slice is owned by the index; callers
// iterate but never mutate or retain it across mutations.
func (o *orderedIDs) all() []TaskID { return o.ids }

func (o *orderedIDs) len() int { return len(o.ids) }

func (o *orderedIDs) reset() { o.ids = o.ids[:0] }

// dueEntry schedules one task's next measurement.
type dueEntry struct {
	wake int64
	id   TaskID
}
