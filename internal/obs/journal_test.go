package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func entry(cycle int) JournalEntry {
	return JournalEntry{
		Cycle:  cycle,
		Tick:   int64(cycle * 6),
		At:     time.Unix(1_000_000_000, 0).Add(time.Duration(cycle) * time.Second),
		Length: 120 * time.Millisecond,
		Tasks: []JournalTask{
			{ID: 0, Share: 1, Consumed: 20 * time.Millisecond},
			{ID: 1, Share: 2, Consumed: 40 * time.Millisecond, BlockedQuanta: 1},
		},
	}
}

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(entry(i))
	}
	if j.Total() != 10 {
		t.Errorf("Total = %d, want 10", j.Total())
	}
	snap := j.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d entries, want 4", len(snap))
	}
	for i, e := range snap {
		if e.Cycle != 6+i {
			t.Errorf("snap[%d].Cycle = %d, want %d (oldest-first order)", i, e.Cycle, 6+i)
		}
	}
}

func TestJournalPartialFill(t *testing.T) {
	j := NewJournal(8)
	j.Append(entry(0))
	j.Append(entry(1))
	snap := j.Snapshot()
	if len(snap) != 2 || snap[0].Cycle != 0 || snap[1].Cycle != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestJournalJSON(t *testing.T) {
	j := NewJournal(4)
	j.Append(entry(3))
	b := httptest.NewRecorder()
	j.ServeHTTP(b, httptest.NewRequest("GET", "/debug/journal", nil))
	var dump struct {
		TotalCycles int64 `json:"total_cycles"`
		Entries     []struct {
			Cycle int `json:"cycle"`
			Tasks []struct {
				ID       int64 `json:"id"`
				Consumed int64 `json:"consumed_ns"`
			} `json:"tasks"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(b.Body.Bytes(), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.Body.String())
	}
	if dump.TotalCycles != 1 || len(dump.Entries) != 1 || dump.Entries[0].Cycle != 3 {
		t.Errorf("dump = %+v", dump)
	}
	if dump.Entries[0].Tasks[1].Consumed != int64(40*time.Millisecond) {
		t.Errorf("consumed_ns = %d", dump.Entries[0].Tasks[1].Consumed)
	}
}

func TestJournalText(t *testing.T) {
	j := NewJournal(4)
	j.Append(entry(7))
	var b strings.Builder
	if err := j.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"1 cycles retained (1 total)", "cycle 7 tick=42", "task0=20ms(33.3%", "task1=40ms(66.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestJournalServeHTTP covers the /debug/journal query parameters: n=K
// limits the dump to the newest K cycles, format selects JSON vs text,
// and each response carries an explicit Content-Type.
func TestJournalServeHTTP(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 6; i++ {
		j.Append(entry(i))
	}
	get := func(t *testing.T, query string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		j.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/journal"+query, nil))
		return rec
	}

	t.Run("default JSON", func(t *testing.T) {
		rec := get(t, "")
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("Content-Type = %q", ct)
		}
		var dump struct {
			TotalCycles int64          `json:"total_cycles"`
			Entries     []JournalEntry `json:"entries"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
			t.Fatal(err)
		}
		if dump.TotalCycles != 6 || len(dump.Entries) != 6 {
			t.Errorf("total=%d entries=%d, want 6/6", dump.TotalCycles, len(dump.Entries))
		}
	})

	t.Run("last K", func(t *testing.T) {
		rec := get(t, "?n=2")
		var dump struct {
			TotalCycles int64          `json:"total_cycles"`
			Entries     []JournalEntry `json:"entries"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
			t.Fatal(err)
		}
		if len(dump.Entries) != 2 || dump.Entries[0].Cycle != 4 || dump.Entries[1].Cycle != 5 {
			t.Errorf("entries = %+v, want cycles 4,5", dump.Entries)
		}
		if dump.TotalCycles != 6 {
			t.Errorf("total = %d, want 6 (n limits entries, not the lifetime count)", dump.TotalCycles)
		}
	})

	t.Run("text format", func(t *testing.T) {
		rec := get(t, "?format=text&n=1")
		if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
			t.Errorf("Content-Type = %q", ct)
		}
		body := rec.Body.String()
		if !strings.HasPrefix(body, "journal: 1 cycles retained (6 total)") {
			t.Errorf("header line = %q", body)
		}
		if !strings.Contains(body, "cycle 5 ") || strings.Contains(body, "cycle 4 ") {
			t.Errorf("body should contain only the newest cycle:\n%s", body)
		}
	})

	t.Run("bad parameters", func(t *testing.T) {
		for _, q := range []string{"?n=0", "?n=-3", "?n=abc", "?format=xml"} {
			if rec := get(t, q); rec.Code != http.StatusBadRequest {
				t.Errorf("GET %s: status %d, want 400", q, rec.Code)
			}
		}
	})
}
