package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOutCreatedBeforeRun: -out names a directory two levels below one
// that exists, and the report the experiment writes at its end lands in
// it, because run creates -out before the experiment starts.
func TestOutCreatedBeforeRun(t *testing.T) {
	defer func(q bool, o string) { *quick, *out = q, o }(*quick, *out)
	*quick, *out = true, filepath.Join(t.TempDir(), "reports", "quick")
	if err := run("scale", io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(*out, "BENCH_scale.json")); err != nil {
		t.Fatal(err)
	}
}
