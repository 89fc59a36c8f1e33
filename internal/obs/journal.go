package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// JournalTask is one task's row in a journal entry.
type JournalTask struct {
	ID            int64         `json:"id"`
	Share         int64         `json:"share"`
	Consumed      time.Duration `json:"consumed_ns"`
	BlockedQuanta int           `json:"blocked_quanta"`
}

// JournalEntry records one completed allocation cycle: the per-task
// consumption the paper's §3.1 instrumentation logs, plus enough context
// (tick, wall time, lateness) to reconstruct what the control loop was
// doing around it.
type JournalEntry struct {
	Cycle    int           `json:"cycle"`
	Tick     int64         `json:"tick"`
	At       time.Time     `json:"at"`
	Length   time.Duration `json:"length_ns"`
	Lateness time.Duration `json:"lateness_ns,omitempty"`
	Tasks    []JournalTask `json:"tasks"`
}

// Journal is a bounded ring buffer of the last N cycle records, safe for
// concurrent append and snapshot: the control loop appends on each cycle
// completion while an HTTP handler or a SIGUSR1 handler dumps it.
type Journal struct {
	mu    sync.Mutex
	ring  *Ring[JournalEntry]
	total int64
}

// DefaultJournalSize is the cycle capacity used by cmd/alps.
const DefaultJournalSize = 256

// NewJournal creates a journal holding the most recent n cycles
// (minimum 1).
func NewJournal(n int) *Journal {
	return &Journal{ring: NewRing[JournalEntry](n)}
}

// Append records one cycle, evicting the oldest once the ring is full.
func (j *Journal) Append(e JournalEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ring.Push(e)
	j.total++
}

// Total returns the number of cycles ever appended (≥ len(Snapshot())).
func (j *Journal) Total() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Snapshot returns the retained entries, oldest first.
func (j *Journal) Snapshot() []JournalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Snapshot()
}

// lastN returns the newest n retained entries, oldest first (all of them
// when n <= 0 or n exceeds the retained count).
func (j *Journal) lastN(n int) []JournalEntry {
	entries := j.Snapshot()
	if n > 0 && n < len(entries) {
		entries = entries[len(entries)-n:]
	}
	return entries
}

// writeJSON dumps entries as one JSON object:
// {"total_cycles": N, "entries": [...]} with durations in nanoseconds.
func (j *Journal) writeJSON(w io.Writer, entries []JournalEntry) error {
	type dump struct {
		TotalCycles int64          `json:"total_cycles"`
		Entries     []JournalEntry `json:"entries"`
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump{TotalCycles: j.Total(), Entries: entries})
}

// WriteText dumps the journal in the one-line-per-cycle format used for
// the SIGUSR1 dump: consumption and blocked quanta per task, with each
// task's share of the cycle's total in percent.
func (j *Journal) WriteText(w io.Writer) error {
	return j.writeText(w, j.Snapshot())
}

func (j *Journal) writeText(w io.Writer, entries []JournalEntry) error {
	if _, err := fmt.Fprintf(w, "journal: %d cycles retained (%d total)\n", len(entries), j.Total()); err != nil {
		return err
	}
	for _, e := range entries {
		var total time.Duration
		for _, t := range e.Tasks {
			total += t.Consumed
		}
		if _, err := fmt.Fprintf(w, "cycle %d tick=%d len=%v late=%v at=%s:",
			e.Cycle, e.Tick, e.Length, e.Lateness, e.At.Format(time.RFC3339Nano)); err != nil {
			return err
		}
		for _, t := range e.Tasks {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(t.Consumed) / float64(total)
			}
			if _, err := fmt.Fprintf(w, " task%d=%v(%.1f%%,share=%d,blocked=%d)",
				t.ID, t.Consumed.Round(time.Millisecond), pct, t.Share, t.BlockedQuanta); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP serves the journal (the /debug/journal endpoint). Query
// parameters: n=K limits the dump to the newest K retained cycles;
// format=text selects the one-line-per-cycle text rendering instead of
// the default JSON. Each format sets its own Content-Type.
func (j *Journal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 0
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, fmt.Sprintf("journal: n=%q must be a positive integer", s), http.StatusBadRequest)
			return
		}
		n = v
	}
	entries := j.lastN(n)
	switch f := q.Get("format"); f {
	case "", "json":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = j.writeJSON(w, entries)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = j.writeText(w, entries)
	default:
		http.Error(w, fmt.Sprintf("journal: unknown format %q (want json or text)", f), http.StatusBadRequest)
	}
}
