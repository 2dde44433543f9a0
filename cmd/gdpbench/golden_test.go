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

// TestMetricsGolden pins the -metrics summary byte for byte. Memo hit and
// wait counts depend on worker scheduling order, so the invocation pins
// -j 1: a serial sweep visits the cache in one reproducible order, and
// every other counter derives from the deterministic simulation itself.
func TestMetricsGolden(t *testing.T) {
	out := runBenchCmd(t, "-figure", "8a", "-run", "fir", "-j", "1", "-metrics")
	checkGolden(t, "metrics_fig8a_fir", out)
}

// workerDependentRow reports whether a -metrics row may differ between -j
// values by design: memo hit and wait counts (which worker reaches a
// shared entry first), the pools' task counts, and the sweep's delta
// tallies (each Gray-code chunk starts with one full evaluation).
func workerDependentRow(row string) bool {
	f := strings.Fields(row)
	if len(f) == 0 {
		return false
	}
	name, _, _ := strings.Cut(f[0], "{")
	switch name {
	case "parallel_tasks", "sweep_funcs_recomputed", "sweep_masks_delta":
		return true
	}
	return strings.HasPrefix(name, "memo_") &&
		(strings.HasSuffix(name, "_hits") || strings.HasSuffix(name, "_waits"))
}

// TestMetricsIndependentOfWorkers pins that a Figure 9 sweep reports the
// same metrics at -j 1 and -j 8, apart from the rows workerDependentRow
// names. The partitioner's FM counters in particular must not depend on
// how many workers the sweep uses. A multi-cell run (-all) must report
// the same unlabeled totals too: the partition path's memos are
// single-flight, so workers that miss one key at once do its work once.
// Its {bench,scheme}-labeled rows still move with -j, because a shared
// memo entry's work is counted for whichever cell computes it first.
func TestMetricsIndependentOfWorkers(t *testing.T) {
	args := []string{"-figure", "9", "-run", "rawcaudio", "-metrics"}
	sameRows(t, strings.Split(runBenchCmd(t, append(args, "-j", "1")...), "\n"),
		strings.Split(runBenchCmd(t, append(args, "-j", "8")...), "\n"))

	args = []string{"-all", "-metrics"}
	j1 := unlabeledMetrics(runBenchCmd(t, append(args, "-j", "1")...))
	if len(j1) < 10 {
		t.Fatalf("-all -metrics printed %d unlabeled metric rows:\n%s", len(j1), strings.Join(j1, "\n"))
	}
	sameRows(t, j1, unlabeledMetrics(runBenchCmd(t, append(args, "-j", "8")...)))
}

// sameRows fails t where the -j 1 and -j 8 rows differ outside the rows
// workerDependentRow allows.
func sameRows(t *testing.T, j1, j8 []string) {
	t.Helper()
	if len(j1) != len(j8) {
		t.Fatalf("-j 1 printed %d lines, -j 8 printed %d", len(j1), len(j8))
	}
	for i := range j1 {
		if j1[i] != j8[i] && !workerDependentRow(j1[i]) {
			t.Errorf("line %d differs:\n -j 1: %q\n -j 8: %q", i+1, j1[i], j8[i])
		}
	}
}

// unlabeledMetrics returns the rows of out's -metrics summary that carry
// no labels.
func unlabeledMetrics(out string) []string {
	_, summary, _ := strings.Cut(out, "\nmetrics:\n")
	var rows []string
	for _, row := range strings.Split(summary, "\n") {
		if !strings.Contains(row, "{") {
			rows = append(rows, row)
		}
	}
	return rows
}
