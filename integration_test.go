package mcpart

// Whole-pipeline integration tests: every bundled benchmark through every
// scheme and machine, with cross-cutting invariants checked at each stage.

import (
	"testing"

	"mcpart/internal/check"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/profile"
)

func TestPipelineInvariantsAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite integration")
	}
	m := Paper2Cluster(5)
	for _, name := range BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := LoadBenchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			cmp, err := EvaluateAll(p, m)
			if err != nil {
				t.Fatal(err)
			}
			mod := p.Module()
			for _, r := range []*Result{cmp.Unified, cmp.GDP, cmp.PMax, cmp.Naive} {
				checkResult(t, mod, p.Profile(), m, r)
			}
			// The data-cognizant schemes cannot beat unified by a huge
			// factor nor lose by one; cycles stay within sane bounds.
			for _, r := range []*Result{cmp.GDP, cmp.PMax, cmp.Naive} {
				rel := RelativePerf(cmp.Unified, r)
				if rel < 0.3 || rel > 1.6 {
					t.Errorf("%s relative perf %.2f out of plausible range", r.Scheme, rel)
				}
			}
		})
	}
}

// checkResult validates scheme-independent invariants of one result.
func checkResult(t *testing.T, mod *ir.Module, prof *profile.Profile, m *Machine, r *Result) {
	t.Helper()
	// 1. Every op assigned to a real cluster with units for its kind.
	for _, f := range mod.Funcs {
		asg := r.Assign[f]
		if len(asg) != f.NOps {
			t.Fatalf("%s/%s: assignment len %d != %d ops", r.Scheme, f.Name, len(asg), f.NOps)
		}
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				c := asg[op.ID]
				if c < 0 || c >= m.NumClusters() {
					t.Fatalf("%s/%s: op %d on cluster %d", r.Scheme, f.Name, op.ID, c)
				}
				if m.Units(c, machine.KindOf(op.Opcode)) == 0 {
					t.Fatalf("%s/%s: op %d needs %s units on cluster %d",
						r.Scheme, f.Name, op.ID, machine.KindOf(op.Opcode), c)
				}
			}
		}
	}
	// 2. Cycles are at least the profile-weighted single-issue lower bound
	// divided by total machine width, and at least the hottest block count.
	var weightedOps, maxFreq int64
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			fq := prof.Freq(b)
			if fq > maxFreq {
				maxFreq = fq
			}
			weightedOps += fq * int64(len(b.Ops))
		}
	}
	width := int64(0)
	for k := machine.FUKind(0); k < machine.NumFUKinds; k++ {
		width += int64(m.TotalUnits(k))
	}
	if r.Cycles < weightedOps/width {
		t.Errorf("%s: %d cycles below resource lower bound %d", r.Scheme, r.Cycles, weightedOps/width)
	}
	if r.Cycles < maxFreq {
		t.Errorf("%s: %d cycles below hottest block frequency %d", r.Scheme, r.Cycles, maxFreq)
	}
	// 3. Rescheduling the stored assignment reproduces the stored cycles
	// and moves (results are deterministic and self-consistent).
	if err := validate(mod, prof, m, r); err != nil {
		t.Errorf("%s: %v", r.Scheme, err)
	}
}

// validate runs the independent validator over r: it re-materializes the
// counted schedules and re-derives function-unit and bus occupancy, ready
// times, cycles and moves from first principles.
func validate(mod *ir.Module, prof *profile.Profile, m *Machine, r *Result) error {
	return check.Validate(mod, prof, m, check.Result{
		Scheme:        string(r.Scheme),
		DataMap:       r.DataMap,
		Assign:        r.Assign,
		Locks:         r.Locks,
		Cycles:        r.Cycles,
		Moves:         r.Moves,
		Groups:        r.Groups,
		CheckCapacity: r.Scheme == SchemeGDP,
	}, check.Options{})
}

func TestIRRoundTripAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite round trip")
	}
	for _, name := range BenchmarkNames() {
		p, err := LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		text := ir.Print(p.Module())
		m2, err := ir.ParseModule(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v", name, err)
		}
		if text2 := ir.Print(m2); text2 != text {
			t.Errorf("%s: print/parse round trip differs", name)
		}
		// The reparsed module must still execute to the same checksum
		// (objects, initializers, and control flow all survived).
		v, err := interp.New(m2, interp.Options{MaxSteps: 10_000_000}).RunMain()
		if err != nil {
			t.Fatalf("%s: reparsed module does not run: %v", name, err)
		}
		if v.I != p.Checksum() {
			t.Errorf("%s: reparsed checksum %d, want %d", name, v.I, p.Checksum())
		}
	}
}

func TestSchemesDeterministicEndToEnd(t *testing.T) {
	m := Paper2Cluster(5)
	for _, name := range []string{"rawcaudio", "viterbi"} {
		p1, err := LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		c1, err := EvaluateAll(p1, m)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := EvaluateAll(p2, m)
		if err != nil {
			t.Fatal(err)
		}
		pairs := [][2]*Result{
			{c1.Unified, c2.Unified}, {c1.GDP, c2.GDP},
			{c1.PMax, c2.PMax}, {c1.Naive, c2.Naive},
		}
		for _, pr := range pairs {
			if pr[0].Cycles != pr[1].Cycles || pr[0].Moves != pr[1].Moves {
				t.Errorf("%s/%s: nondeterministic: %d/%d vs %d/%d",
					name, pr[0].Scheme, pr[0].Cycles, pr[0].Moves, pr[1].Cycles, pr[1].Moves)
			}
		}
	}
}

func TestFourClusterEndToEnd(t *testing.T) {
	m := FourCluster(5)
	p, err := LoadBenchmark("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := EvaluateAll(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmp.GDP.DataMap.Validate(p.Module(), 4); err != nil {
		t.Error(err)
	}
	checkResult(t, p.Module(), p.Profile(), m, cmp.GDP)
}

func TestHeterogeneousEndToEnd(t *testing.T) {
	m := Heterogeneous2(5)
	p, err := LoadBenchmark("sobel")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := EvaluateAll(p, m)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, p.Module(), p.Profile(), m, cmp.GDP)
	// The bigger cluster 0 should receive at least as many hot ops as
	// cluster 1 under the unified scheme.
	var onBig, onSmall int64
	for _, f := range p.Module().Funcs {
		asg := cmp.Unified.Assign[f]
		for _, b := range f.Blocks {
			fq := p.Profile().Freq(b)
			for _, op := range b.Ops {
				if asg[op.ID] == 0 {
					onBig += fq
				} else {
					onSmall += fq
				}
			}
		}
	}
	if onBig < onSmall {
		t.Errorf("heterogeneous machine: big cluster got %d weighted ops, small %d", onBig, onSmall)
	}
}

// TestSchedulerSelfCheckAllBenchmarks validates every produced schedule
// against resources, bus bandwidth, and dependence latencies, through the
// independent validator.
func TestSchedulerSelfCheckAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite self check")
	}
	m := Paper2Cluster(5)
	for _, name := range BenchmarkNames() {
		p, err := LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := EvaluateAll(p, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Result{cmp.Unified, cmp.GDP, cmp.PMax, cmp.Naive} {
			if err := validate(p.Module(), p.Profile(), m, r); err != nil {
				t.Errorf("%s/%s: %v", name, r.Scheme, err)
			}
		}
	}
}
