package osproc

import "testing"

// statSeeds is the shared seed corpus of the stat-line fuzzers.
var statSeeds = []string{
	"123 (cat) R 1 123 123 0 -1 4194304 100 0 0 0 15 7 0 0 20 0 1 0 100 1000000 100 0 0 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0",
	"42 (my (evil) proc) S 1 42 42 0 -1 0 0 0 0 0 3 4 0 0 20 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
	"",
	"1 (x",
	"1 (x) Z",
}

// FuzzParseStat: no input may panic the parser, and accepted inputs must
// produce sane fields.
func FuzzParseStat(f *testing.F) {
	for _, s := range statSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		st, err := parseStat(1, raw)
		if err != nil {
			return
		}
		if st.CPU < 0 {
			t.Errorf("negative CPU from %q", raw)
		}
	})
}

// FuzzParseStatBytes holds the sampling path's in-place parser to the
// reference parseStat: for every input both accept or both reject, and
// accepted inputs agree on state, PPID, CPU and start time.
func FuzzParseStatBytes(f *testing.F) {
	for _, s := range statSeeds {
		f.Add(s)
	}
	// A real read ends in a newline.
	f.Add("7 (sleep) S 1 7 7 0 -1 4194560 99 0 0 0 0 0 0 0 20 0 1 0 5581 8450048 224 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n")
	// A short fixture line: no starttime field, so Start stays 0.
	f.Add("77 (worker) R 1 77 77 0 -1 0 0 0 0 0 250 50 0 0 20 0 1")
	// A comm holding ") " and digits must not shift the fields.
	f.Add("9 (a) 1 2 ) 3) R 4 9 9 0 -1 0 0 0 0 0 11 12 0 0 20 0 3 0 99 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0")
	f.Fuzz(func(t *testing.T, raw string) {
		want, werr := parseStat(1, raw)
		got, _, gerr := parseStatBytes(1, []byte(raw))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: parseStat err %v, parseStatBytes err %v", raw, werr, gerr)
		}
		if werr != nil {
			return
		}
		if got.State != want.State || got.PPID != want.PPID || got.CPU != want.CPU || got.Start != want.Start {
			t.Fatalf("%q: parseStatBytes %+v, parseStat %+v", raw, got, want)
		}
	})
}

// TestParseStatBytesFields pins num_threads and the short-line rule.
func TestParseStatBytesFields(t *testing.T) {
	st, threads, err := parseStatBytes(9, []byte("9 (a) 1 2 ) 3) R 4 9 9 0 -1 0 0 0 0 0 11 12 0 0 20 0 3 0 99 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != 'R' || st.PPID != 4 || st.CPU != 23*ClockTick || st.Start != 99 || threads != 3 {
		t.Errorf("parsed %+v threads=%d", st, threads)
	}
	st, threads, err = parseStatBytes(77, []byte("77 (worker) R 1 77 77 0 -1 0 0 0 0 0 250 50 0 0 20 0 1"))
	if err != nil || st.Start != 0 || threads != 1 || st.CPU != 300*ClockTick {
		t.Errorf("short line: %+v threads=%d err=%v", st, threads, err)
	}
}
