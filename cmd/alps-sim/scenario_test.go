package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alps/internal/trace"
)

func TestParseExampleScenario(t *testing.T) {
	sc, err := ParseScenario([]byte(exampleScenario))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Tasks) != 5 {
		t.Fatalf("tasks = %d", len(sc.Tasks))
	}
	if sc.Tasks[3].Behavior != "io" || time.Duration(sc.Tasks[3].Exec) != 80*time.Millisecond {
		t.Errorf("io task parsed as %+v", sc.Tasks[3])
	}
	if sc.Tasks[4].Procs != 3 {
		t.Errorf("pool procs = %d", sc.Tasks[4].Procs)
	}
}

func TestParseDefaults(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"tasks":[{"name":"a","share":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.NCPU != 1 || time.Duration(sc.Quantum) != 10*time.Millisecond || time.Duration(sc.Duration) != time.Minute {
		t.Errorf("defaults: %+v", sc)
	}
	if sc.Tasks[0].Behavior != "spin" || sc.Tasks[0].Procs != 1 {
		t.Errorf("task defaults: %+v", sc.Tasks[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]struct{ raw, want string }{
		"bad policy":        {`{"policy":"o1","tasks":[{"name":"a","share":1}]}`, "unknown policy"},
		"no tasks":          {`{"tasks":[]}`, "no tasks"},
		"unnamed task":      {`{"tasks":[{"share":1}]}`, "has no name"},
		"duplicate name":    {`{"tasks":[{"name":"a","share":1},{"name":"a","share":2}]}`, "duplicate task name"},
		"zero share":        {`{"tasks":[{"name":"a","share":0}]}`, "share must be positive"},
		"bad behavior":      {`{"tasks":[{"name":"a","share":1,"behavior":"dance"}]}`, "unknown behavior"},
		"io without waits":  {`{"tasks":[{"name":"a","share":1,"behavior":"io"}]}`, "io behavior needs"},
		"unknown field":     {`{"tasks":[{"name":"a","share":1}],"typo":true}`, `unknown field "typo"`},
		"reservations":      {`{"tasks":[{"name":"a","share":1}],"reservations":{"a":0.5}}`, `unknown field "reservations"`},
		"bad duration":      {`{"duration":"soon","tasks":[{"name":"a","share":1}]}`, "bad duration"},
		"negative ncpu":     {`{"ncpu":-1,"tasks":[{"name":"a","share":1}]}`, "ncpu -1 is negative"},
		"negative duration": {`{"duration":"-1m","tasks":[{"name":"a","share":1}]}`, "duration -1m0s is negative"},
		"negative quantum":  {`{"quantum":"-10ms","tasks":[{"name":"a","share":1}]}`, "quantum -10ms is negative"},
	}
	for name, c := range cases {
		_, err := ParseScenario([]byte(c.raw))
		if err == nil {
			t.Errorf("%s: expected parse error", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

func TestParseNumericDuration(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"quantum":20000000,"tasks":[{"name":"a","share":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(sc.Quantum) != 20*time.Millisecond {
		t.Errorf("numeric quantum = %v", time.Duration(sc.Quantum))
	}
}

// TestRunScenarioProportions runs a small scenario end to end.
func TestRunScenarioProportions(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
		"duration": "1m",
		"tasks": [
			{"name": "a", "share": 1},
			{"name": "b", "share": 3}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(sc, false, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("no cycles completed")
	}
	if res.Tasks[0].PctOfWorkload < 22 || res.Tasks[0].PctOfWorkload > 28 {
		t.Errorf("task a got %.1f%%, want ~25%%", res.Tasks[0].PctOfWorkload)
	}
	rep := res.Report()
	if !strings.Contains(rep, "ALPS overhead") || !strings.Contains(rep, "task") {
		t.Errorf("report missing sections:\n%s", rep)
	}
}

// TestRunScenarioChromeTrace checks the -chrome path: the example
// scenario must produce a file that parses and validates as a Chrome
// trace (RunScenario itself validates before writing; this test guards
// the file actually landing on disk and surviving a reparse).
func TestRunScenarioChromeTrace(t *testing.T) {
	sc, err := ParseScenario([]byte(exampleScenario))
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = Duration(5 * time.Second)
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := RunScenario(sc, false, "", path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(raw); err != nil {
		t.Errorf("written chrome trace invalid: %v", err)
	}
}
