// Benchmarks of the code's own speed: the core algorithm's per-quantum
// cost, the in-kernel stride baseline's per-decision cost and the
// simulator's event throughput. cmd/alps-bench regenerates the paper's
// tables and figures, and its golden test pins their simulated outputs.
package alps_test

import (
	"testing"
	"time"

	"alps"
	"alps/internal/stride"
)

// BenchmarkTickQuantum measures the core algorithm's per-quantum cost at
// several workload sizes — the computational piece of the paper's
// overhead model.
func BenchmarkTickQuantum(b *testing.B) {
	for _, n := range []int{5, 20, 100} {
		b.Run(byN(n), func(b *testing.B) {
			s := alps.New(alps.Config{Quantum: 10 * time.Millisecond})
			for i := 0; i < n; i++ {
				if err := s.Add(alps.TaskID(i), 5); err != nil {
					b.Fatal(err)
				}
			}
			read := func(alps.TaskID) (alps.Progress, bool) {
				return alps.Progress{Consumed: time.Millisecond}, true
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.TickQuantum(read)
			}
		})
	}
}

func byN(n int) string {
	return "N=" + string(rune('0'+n/100%10)) + string(rune('0'+n/10%10)) + string(rune('0'+n%10))
}

// BenchmarkStrideBaseline measures the in-kernel stride baseline's
// per-decision cost.
func BenchmarkStrideBaseline(b *testing.B) {
	s := stride.New()
	for i := int64(0); i < 20; i++ {
		if err := s.Add(i, i+1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEventThroughput measures the simulator's raw speed:
// simulated seconds per wall second for a 20-process ALPS workload.
func BenchmarkSimEventThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := alps.NewKernel()
		tasks := make([]alps.SimTask, 20)
		for j := range tasks {
			pid := k.SpawnStopped("w", 0, alps.Spin())
			tasks[j] = alps.SimTask{ID: alps.TaskID(j), Share: 5, Pids: []alps.SimPID{pid}}
		}
		if _, err := alps.StartALPS(k, alps.SimConfig{Quantum: 10 * time.Millisecond, Cost: alps.PaperCosts()}, tasks); err != nil {
			b.Fatal(err)
		}
		k.Run(10 * time.Second)
	}
	b.ReportMetric(10*float64(b.N)/b.Elapsed().Seconds(), "simSec/s")
}
