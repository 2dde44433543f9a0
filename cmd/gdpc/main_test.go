package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("gdpc %v: %v", args, err)
	}
	return sb.String()
}

func TestListBenchmarks(t *testing.T) {
	out := runCmd(t, "-list")
	for _, want := range []string{"rawcaudio", "mpeg2dec", "viterbi"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q", want)
		}
	}
}

func TestEvaluateBenchmarkAllSchemes(t *testing.T) {
	out := runCmd(t, "-bench", "halftone", "-latency", "5")
	for _, want := range []string{"Unified", "GDP", "ProfileMax", "Naive",
		"cycles", "map=", "data objects:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRemovedFlagsRejected pins that the engine switches the tool no
// longer has fail as undefined flags instead of being silently accepted.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-legacyinterp"} {
		var sb strings.Builder
		err := run([]string{"-bench", "halftone", "-validate", flag}, &sb)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", flag, err)
		}
	}
}

func TestDumpIR(t *testing.T) {
	out := runCmd(t, "-bench", "fir", "-dump-ir")
	for _, want := range []string{"module fir", "func main", "load"} {
		if !strings.Contains(out, want) {
			t.Errorf("-dump-ir missing %q", want)
		}
	}
}

func TestDumpSched(t *testing.T) {
	out := runCmd(t, "-bench", "fir", "-scheme", "gdp", "-dump-sched", "fir", "-objects=false")
	if !strings.Contains(out, "schedule of fir") || !strings.Contains(out, "block b0:") {
		t.Errorf("-dump-sched output wrong:\n%s", out)
	}
}

func TestCompileFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.mc")
	src := "global int g[8];\nfunc main() int { int i; int s = 0; for (i = 0; i < 8; i = i + 1) { g[i] = i; s = s + g[i]; } return s; }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "-src", path, "-scheme", "unified")
	if !strings.Contains(out, "checksum 28") {
		t.Errorf("file compile output wrong:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	cases := [][]string{
		{},                                  // no input
		{"-bench", "nope"},                  // unknown benchmark
		{"-bench", "fir", "-scheme", "bad"}, // unknown scheme
		{"-bench", "fir", "-clusters", "3"}, // unsupported cluster count
		{"-bench", "fir", "-src", "x"},      // both inputs
	}
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("gdpc %v: expected error", args)
		}
	}
}
