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
// simulation and from the fixed order in which one benchmark's schemes
// visit its memo, so the rows are the same at any -j
// (TestMetricsIndependentOfWorkers).
func TestMetricsGolden(t *testing.T) {
	out := runBenchCmd(t, "-figure", "8a", "-run", "fir", "-j", "1", "-metrics")
	checkGolden(t, "metrics_fig8a_fir", out)
}

// TestMetricsIndependentOfWorkers pins that the -metrics section is byte
// for byte the same at -j 1 and -j 8, every row included: a Figure 9
// sweep, the whole -all run and the topology sweep. Workers split
// benchmarks and sweep-table functions only, so no two workers share a
// memo entry whose work counters could go to either of them.
func TestMetricsIndependentOfWorkers(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "9", "-run", "rawcaudio", "-metrics"},
		{"-all", "-metrics"},
		{"-topology", "-metrics"},
	} {
		j1 := metricsSection(t, runBenchCmd(t, append(args, "-j", "1")...))
		j8 := metricsSection(t, runBenchCmd(t, append(args, "-j", "8")...))
		sameRows(t, args, j1, j8)
	}
}

// metricsSection returns the rows of out's -metrics summary.
func metricsSection(t *testing.T, out string) []string {
	t.Helper()
	_, summary, ok := strings.Cut(out, "\nmetrics:\n")
	if !ok {
		t.Fatalf("no metrics section in output:\n%s", out)
	}
	return strings.Split(summary, "\n")
}

// sameRows fails t where the -j 1 and -j 8 rows of one invocation differ.
func sameRows(t *testing.T, args, j1, j8 []string) {
	t.Helper()
	if len(j1) != len(j8) {
		t.Fatalf("%v: -j 1 printed %d metric rows, -j 8 printed %d", args, len(j1), len(j8))
	}
	for i := range j1 {
		if j1[i] != j8[i] {
			t.Errorf("%v: metric row %d differs:\n -j 1: %q\n -j 8: %q", args, i+1, j1[i], j8[i])
		}
	}
}
