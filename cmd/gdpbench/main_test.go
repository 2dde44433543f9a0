package main

import (
	"os"
	"strings"
	"testing"
)

func runBenchCmd(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("gdpbench %v: %v", args, err)
	}
	return sb.String()
}

func TestTable1(t *testing.T) {
	out := runBenchCmd(t, "-table", "1")
	for _, want := range []string{"GDP", "Profile Max", "Naive", "Unified Memory"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

func TestFigure8aFiltered(t *testing.T) {
	out := runBenchCmd(t, "-figure", "8a", "-run", "halftone")
	if !strings.Contains(out, "Figure 8a") || !strings.Contains(out, "halftone") {
		t.Errorf("figure 8a output wrong:\n%s", out)
	}
	if strings.Contains(out, "rawcaudio") {
		t.Error("-run filter leaked other benchmarks")
	}
}

func TestFigure9Filtered(t *testing.T) {
	out := runBenchCmd(t, "-figure", "9", "-run", "halftone")
	if !strings.Contains(out, "Figure 9 (halftone)") || !strings.Contains(out, "<GDP>") {
		t.Errorf("figure 9 output wrong:\n%s", out)
	}
}

func TestCompileTimeSection(t *testing.T) {
	out := runBenchCmd(t, "-compiletime", "-run", "fir")
	if !strings.Contains(out, "Section 4.5") || !strings.Contains(out, "2/") {
		t.Errorf("compile-time output wrong:\n%s", out)
	}
}

func TestNothingSelected(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("expected error when nothing selected")
	}
}

func TestJSONExport(t *testing.T) {
	out := runBenchCmd(t, "-json", "-run", "halftone")
	for _, want := range []string{`"benchmark": "halftone"`, `"move_latency": 10`,
		`"gdp_rel"`, `"gdp_data_map"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestSVGExport(t *testing.T) {
	dir := t.TempDir()
	out := runBenchCmd(t, "-svg", dir, "-run", "halftone")
	if !strings.Contains(out, "figure8a.svg") {
		t.Errorf("no figure files reported:\n%s", out)
	}
	data, err := os.ReadFile(dir + "/figure8a.svg")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "halftone") {
		t.Error("figure8a.svg content wrong")
	}
	if _, err := os.ReadFile(dir + "/figure9-halftone.svg"); err != nil {
		t.Errorf("exhaustive scatter missing: %v", err)
	}
}

func TestCacheStats(t *testing.T) {
	out := runBenchCmd(t, "-compiletime", "-run", "fir", "-cachestats")
	if !strings.Contains(out, "memoization cache (per benchmark):") ||
		!strings.Contains(out, "fir") || !strings.Contains(out, "hits") {
		t.Errorf("cache stats missing:\n%s", out)
	}
}

// TestRemovedFlagsRejected pins that the engine switches the tool no
// longer has fail as undefined flags instead of being silently accepted.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-nomemo", "-legacypartition", "-legacyinterp"} {
		var sb strings.Builder
		err := run([]string{"-figure", "8a", "-run", "fir", flag}, &sb)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", flag, err)
		}
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	runBenchCmd(t, "-table", "1", "-cpuprofile", cpu, "-memprofile", mem)
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}
