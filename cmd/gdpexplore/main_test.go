package main

import (
	"os"
	"strings"
	"testing"
)

func TestExploreText(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "halftone"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 9 (halftone)", "GDP chose mask", "best achievable"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestExploreCSV(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "fir", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "mask,cycles,perf_vs_worst,imbalance,is_gdp,is_pmax" {
		t.Errorf("bad CSV header %q", lines[0])
	}
	// One row per mapping: 2^objects + header.
	if len(lines) < 9 {
		t.Errorf("only %d CSV lines", len(lines))
	}
	gdpRows := 0
	for _, l := range lines[1:] {
		if strings.Contains(l, "true") {
			gdpRows++
		}
	}
	if gdpRows == 0 {
		t.Error("no scheme-marked rows in CSV")
	}
}

func TestExploreErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "nope"}, &sb); err == nil {
		t.Error("accepted unknown benchmark")
	}
	if err := run([]string{"-bench", "mpeg2dec", "-maxobjects", "2"}, &sb); err == nil {
		t.Error("accepted object count above cap")
	}
}

func TestExploreBest(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "fir", "-best"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"optimal mapping mask", "cycles ", "nodes visited"} {
		if !strings.Contains(out, want) {
			t.Errorf("-best output missing %q:\n%s", want, out)
		}
	}
	// An explicit -maxobjects still wins over the raised -best default.
	if err := run([]string{"-bench", "fir", "-best", "-maxobjects", "2"}, &sb); err == nil {
		t.Error("-best ignored an explicit -maxobjects below the object count")
	}
}

// TestRemovedFlagsRejected pins that the engine switches the tool no
// longer has fail as undefined flags instead of being silently accepted.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-nomemo", "-nodelta", "-legacypartition", "-legacyinterp"} {
		var sb strings.Builder
		err := run([]string{"-bench", "fir", "-csv", flag}, &sb)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", flag, err)
		}
	}
}

func TestExploreProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	var sb strings.Builder
	if err := run([]string{"-bench", "fir", "-cpuprofile", cpu, "-memprofile", mem, "-cachestats"}, &sb); err != nil {
		t.Fatal(err)
	}
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
