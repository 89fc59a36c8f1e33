//go:build !race

// The simulator is single-threaded, so the race detector adds nothing
// here but a tenfold slowdown of the runs.

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickOutputsGolden pins the printed output of every simulated
// experiment: each runs with -quick and must print, byte for byte, its
// file in testdata/quick. table1, obs and scale time the host and are
// left out; any other experiment needs a file. A change that alters a
// simulated result on purpose regenerates the file it changes, from the
// repository root:
//
//	go run ./cmd/alps-bench -quick fig4 > cmd/alps-bench/testdata/quick/fig4.txt
func TestQuickOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulated experiment")
	}
	defer func(q bool, o string) { *quick, *out = q, o }(*quick, *out)
	*quick, *out = true, ""
	for _, e := range experiments {
		name := e.name
		if name == "table1" || name == "obs" || name == "scale" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "quick", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(name, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from testdata/quick/%s.txt\n--- got\n%s--- want\n%s", name, got.Bytes(), want)
			}
		})
	}
}
