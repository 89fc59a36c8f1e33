package main

import (
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload in -quick mode, untraced and traced,
// on real processes and checks that it passes its correctness checks and
// emits every metric BENCHMARK.json names, finite and in its unit.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real workload processes")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spin := filepath.Join(dir, "alps-spin")
	if out, err := exec.Command("go", "build", "-o", spin, "alps/cmd/alps-spin").CombinedOutput(); err != nil {
		t.Fatalf("build alps-spin: %v\n%s", err, out)
	}
	if err := setSubreaper(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	o := options{seed: 1, quick: true, spin: spin, out: dir}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(ctx, w, o, planFor(w, 0, -1, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Errorf("check failed: %s", p)
			}
			for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
				got, ok := res.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: not emitted", m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s = %v, want a finite value", m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
			}
			for _, set := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
				if _, err := jsonLine(res, set); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
