// Benchmarks regenerating each table and figure of the paper's
// evaluation (reduced cycle counts per iteration; run cmd/alps-bench for
// the full paper-scale sweeps). Custom metrics attach the experiment's
// headline number to the benchmark output: errPct (mean RMS relative
// error), ovhPct (ALPS overhead), reqPerSec (web throughput).
package alps_test

import (
	"testing"
	"time"

	"alps"
	"alps/internal/exp"
	"alps/internal/share"
	"alps/internal/stride"
	"alps/internal/websim"
)

// BenchmarkTable1MeasureProcess is the dominant Table 1 operation:
// reading one process's CPU time and run state (here via the simulator's
// Info; cmd/alps-bench table1 measures the real /proc path).
func BenchmarkTable1MeasureProcess(b *testing.B) {
	k := alps.NewKernel()
	pid := k.Spawn("w", 0, alps.Spin())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := k.Info(pid); !ok {
			b.Fatal("process vanished")
		}
	}
}

// BenchmarkTable1Signal is Table 1's signal-send operation in the
// simulator.
func BenchmarkTable1Signal(b *testing.B) {
	k := alps.NewKernel()
	pid := k.Spawn("w", 0, alps.Spin())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Signal(pid, 19) // SIGCONT: no-op on a running process
	}
}

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

// BenchmarkFig4Accuracy runs one Figure 4 point (Skewed5, the paper's
// worst case) per iteration and reports the error metric.
func BenchmarkFig4Accuracy(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(exp.RunSpec{
			Shares:     mustDist(b, share.Skewed, 5),
			Quantum:    10 * time.Millisecond,
			Cycles:     60,
			Warmup:     3,
			WarmupTime: 75 * time.Second,
			Cost:       alps.PaperCosts(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if last, err = r.MeanRMSErrorPct(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last, "errPct")
}

// BenchmarkFig5Overhead runs one Figure 5 point (Equal10 at 10 ms, the
// paper's highest-overhead case) per iteration.
func BenchmarkFig5Overhead(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(exp.RunSpec{
			Shares:     mustDist(b, share.Equal, 10),
			Quantum:    10 * time.Millisecond,
			Cycles:     40,
			Warmup:     3,
			WarmupTime: 75 * time.Second,
			Cost:       alps.PaperCosts(),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r.OverheadPct()
	}
	b.ReportMetric(last, "ovhPct")
}

// BenchmarkAblationUnoptimized is the §3.2 baseline: the same point as
// BenchmarkFig5Overhead with lazy sampling disabled.
func BenchmarkAblationUnoptimized(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(exp.RunSpec{
			Shares:              mustDist(b, share.Equal, 10),
			Quantum:             10 * time.Millisecond,
			Cycles:              40,
			Warmup:              3,
			WarmupTime:          75 * time.Second,
			Cost:                alps.PaperCosts(),
			DisableLazySampling: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r.OverheadPct()
	}
	b.ReportMetric(last, "ovhPct")
}

// BenchmarkFig6IO runs the §3.3 I/O redistribution experiment.
func BenchmarkFig6IO(b *testing.B) {
	p := exp.DefaultIOParams()
	p.IOStartCycle, p.TotalCycles = 80, 140
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := exp.IORedistribution(p)
		if err != nil {
			b.Fatal(err)
		}
		last = r.BlockedSharePct[2]
	}
	b.ReportMetric(last, "cSharePct") // expect ~75
}

// BenchmarkFig7Table3MultiApp runs the full §4.1 experiment (Figure 7's
// trace and Table 3's regressions).
func BenchmarkFig7Table3MultiApp(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := exp.MultiApp(exp.DefaultMultiAppParams())
		if err != nil {
			b.Fatal(err)
		}
		last = r.AvgRelErrPct
	}
	b.ReportMetric(last, "avgRelErrPct") // paper: 0.93
}

// BenchmarkFig8Scalability runs one pre-breakdown scalability point
// (N=30, Q=10 ms).
func BenchmarkFig8Scalability(b *testing.B) {
	shares := make([]int64, 30)
	for i := range shares {
		shares[i] = 5
	}
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(exp.RunSpec{
			Shares:     shares,
			Quantum:    10 * time.Millisecond,
			Cycles:     10,
			Warmup:     2,
			WarmupTime: 75 * time.Second,
			Cost:       alps.PaperCosts(),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r.OverheadPct()
	}
	b.ReportMetric(last, "ovhPct")
}

// BenchmarkFig9Breakdown runs one post-breakdown point (N=50, Q=10 ms),
// where the paper's Figure 9 shows loss of control.
func BenchmarkFig9Breakdown(b *testing.B) {
	shares := make([]int64, 50)
	for i := range shares {
		shares[i] = 5
	}
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(exp.RunSpec{
			Shares:     shares,
			Quantum:    10 * time.Millisecond,
			Cycles:     8,
			Warmup:     2,
			WarmupTime: 75 * time.Second,
			Cost:       alps.PaperCosts(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if last, err = r.MeanRMSErrorPct(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last, "errPct") // expect large: loss of control
}

// BenchmarkWebServer runs the §5 shared-web-server experiment under ALPS.
func BenchmarkWebServer(b *testing.B) {
	cfg := websim.DefaultConfig()
	cfg.UseALPS = true
	cfg.Warmup, cfg.Measure = 30*time.Second, 45*time.Second
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := websim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r.Sites[0].Throughput + r.Sites[1].Throughput + r.Sites[2].Throughput
	}
	b.ReportMetric(last, "reqPerSec")
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

func mustDist(b *testing.B, m share.Model, n int) []int64 {
	b.Helper()
	d, err := share.Distribution(m, n)
	if err != nil {
		b.Fatal(err)
	}
	return d
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
