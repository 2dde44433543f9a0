package main

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the speed probe's child process,
// which the runs below start from their own executable.
func TestMain(m *testing.M) {
	if job := os.Getenv(probeEnv); job != "" {
		os.Exit(serveProbe(job, os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload briefly, untraced and traced, with all its
// reference checks, so a change that breaks the benchmark fails here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var stdout, stderr bytes.Buffer
	t0 := time.Now()
	if code := run([]string{"-smoke", "-out", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	t.Logf("%s(%.1fs)", stdout.String(), time.Since(t0).Seconds())
}
