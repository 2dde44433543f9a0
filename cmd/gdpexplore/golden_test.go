package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// checkGolden compares got to testdata/<name>.golden, rewriting the file
// instead when the test binary runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./cmd/... -update` to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update after intentional changes)", path, i+1, g, w)
		}
	}
	t.Fatalf("output differs from %s in trailing newlines", path)
}

// TestMetricsGolden pins the -metrics summary byte for byte at -j 1, the
// serial reference. Every counter derives from the deterministic
// simulation, so the rows are the same at any -j
// (TestMetricsIndependentOfWorkers).
func TestMetricsGolden(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "fir", "-j", "1", "-metrics"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_fir", sb.String())
}

// TestMetricsIndependentOfWorkers pins that a 4,096-mask sweep prints the
// same scatter and the same -metrics rows, every row included, at -j 1 and
// -j 8: only phase 1's per-function tables fan out, and the Gray walk that
// tallies sweep_masks_delta and sweep_funcs_recomputed is serial.
func TestMetricsIndependentOfWorkers(t *testing.T) {
	output := func(j string) []string {
		var sb strings.Builder
		if err := run([]string{"-bench", "rawcaudio", "-machine", "four", "-metrics", "-j", j}, &sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "\nmetrics:\n") {
			t.Fatalf("-j %s: no metrics section in output", j)
		}
		return strings.Split(sb.String(), "\n")
	}
	j1, j8 := output("1"), output("8")
	if len(j1) != len(j8) {
		t.Fatalf("-j 1 printed %d lines, -j 8 printed %d", len(j1), len(j8))
	}
	for i := range j1 {
		if j1[i] != j8[i] {
			t.Errorf("line %d differs:\n -j 1: %q\n -j 8: %q", i+1, j1[i], j8[i])
		}
	}
}

// TestBestMetricsGolden pins the -best output and its metric summary:
// the branch-and-bound counters are nonzero, and the sweep-enumeration
// counters report explicit zeros (the search never walks the Gray
// sequence). Deterministic at any -j: the search itself is serial and
// only the table build fans out.
func TestBestMetricsGolden(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "fir", "-j", "1", "-best", "-metrics"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "best_metrics_fir", sb.String())
}
