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

// TestMetricsGolden pins the -metrics summary byte for byte. The whole
// pipeline is a deterministic simulation, gdpc evaluates the schemes
// serially, and nothing below a scheme fans out (the graph partitioner is
// serial), so no goroutine count reaches the run: every counter —
// including the scheduling-order-sensitive memo hit counts — is the same
// on every machine, whatever its core count.
func TestMetricsGolden(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "fir", "-metrics"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_fir", sb.String())
}
