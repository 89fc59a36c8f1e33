package main

import "testing"

// FuzzParseScenario: arbitrary JSON must never panic the scenario
// validator, and accepted scenarios must satisfy the documented
// invariants.
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(exampleScenario))
	f.Add([]byte(`{"tasks":[{"name":"a","share":1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"tasks":[{"name":"a","share":-1}]}`))
	f.Add([]byte(`{"ncpu":-1,"tasks":[{"name":"a","share":1}]}`))
	f.Add([]byte(`{"duration":"-1m","tasks":[{"name":"a","share":1}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		sc, err := ParseScenario(raw)
		if err != nil {
			return
		}
		if sc.NCPU < 1 || sc.Quantum <= 0 || sc.Duration <= 0 || len(sc.Tasks) == 0 {
			t.Errorf("accepted scenario violates invariants: %+v", sc)
		}
		for _, task := range sc.Tasks {
			if task.Share <= 0 || task.Procs < 1 || task.Name == "" {
				t.Errorf("accepted bad task: %+v", task)
			}
		}
	})
}
