package bench

import (
	"testing"

	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/mclang"
	"mcpart/internal/pointsto"
	"mcpart/internal/profile"
)

func runBench(t *testing.T, b Benchmark) (profile.Value, *profile.Profile, *ir.Module) {
	t.Helper()
	mod, err := mclang.Compile(b.Source, b.Name)
	if err != nil {
		t.Fatalf("%s: compile: %v", b.Name, err)
	}
	pointsto.Analyze(mod)
	in := interp.New(mod, interp.Options{MaxSteps: 5_000_000})
	v, err := in.RunMain()
	if err != nil {
		t.Fatalf("%s: run: %v", b.Name, err)
	}
	return v, in.Profile(), mod
}

func TestAllBenchmarksCompileAndRun(t *testing.T) {
	if len(All()) < 17 {
		t.Fatalf("only %d benchmarks registered", len(All()))
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			v, prof, mod := runBench(t, b)
			if v.Kind != profile.ValInt {
				t.Fatalf("main returned %s, want int", v)
			}
			t.Logf("%s: checksum=%d steps=%d objects=%d", b.Name, v.I, prof.Steps, len(mod.Objects))
			if b.Want != 0 && v.I != b.Want {
				t.Errorf("checksum = %d, want %d", v.I, b.Want)
			}
			if prof.Steps > 2_000_000 {
				t.Errorf("too slow to profile: %d steps", prof.Steps)
			}
			if prof.Steps < 5_000 {
				t.Errorf("trivially small: %d steps", prof.Steps)
			}
			// The evaluation needs data objects worth partitioning.
			if len(mod.Objects) < 3 {
				t.Errorf("only %d data objects", len(mod.Objects))
			}
		})
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	for _, b := range All() {
		v1, _, _ := runBench(t, b)
		v2, _, _ := runBench(t, b)
		if v1.I != v2.I {
			t.Errorf("%s: nondeterministic: %d vs %d", b.Name, v1.I, v2.I)
		}
	}
}

func TestExhaustiveSetSmall(t *testing.T) {
	n := 0
	for _, b := range All() {
		if !b.Exhaustive {
			continue
		}
		n++
		_, _, mod := runBench(t, b)
		if len(mod.Objects) > 12 {
			t.Errorf("%s marked exhaustive but has %d objects", b.Name, len(mod.Objects))
		}
	}
	if n < 2 {
		t.Errorf("only %d exhaustive benchmarks; Figure 9 needs rawcaudio and rawdaudio", n)
	}
	if _, err := Get("rawcaudio"); err != nil {
		t.Error(err)
	}
	if _, err := Get("rawdaudio"); err != nil {
		t.Error(err)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Error("Get accepted unknown name")
	}
}

func TestNamesUniqueAndOrdered(t *testing.T) {
	names := Names()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate benchmark %q", n)
		}
		seen[n] = true
	}
}
