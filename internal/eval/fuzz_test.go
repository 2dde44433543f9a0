package eval

import (
	"context"
	"reflect"
	"testing"

	"mcpart/internal/machine"
	"mcpart/internal/progen"
)

// FuzzPipeline property-tests the whole pipeline on generated programs:
// progen's output is valid and terminating by construction, so every stage
// must succeed, the optimizer and unroller must preserve the interpreter
// checksum (the end-to-end oracle), and every scheme's result must satisfy
// the independent validator.
func FuzzPipeline(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1337, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := progen.Generate(seed, progen.Options{})
		plain, err := PrepareFullOpts(context.Background(), "fuzz", src, 1, false, Options{})
		if err != nil {
			t.Fatalf("seed %d: unoptimized pipeline rejected a progen program: %v\n%s", seed, err, src)
		}
		full, err := PrepareFullOpts(context.Background(), "fuzz", src, DefaultUnroll, true, Options{})
		if err != nil {
			t.Fatalf("seed %d: optimized pipeline rejected a progen program: %v\n%s", seed, err, src)
		}
		if plain.Ret != full.Ret {
			t.Fatalf("seed %d: optimizer/unroller changed the checksum: %d -> %d\n%s",
				seed, plain.Ret, full.Ret, src)
		}
		br, err := RunAllSchemes(full, machine.Paper2Cluster(5), Options{Validate: true, Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: scheme evaluation failed validation: %v\n%s", seed, err, src)
		}
		for _, r := range []*Result{br.Unified, br.GDP, br.PMax, br.Naive} {
			if r.Cycles <= 0 {
				t.Fatalf("seed %d: %s produced %d cycles", seed, r.Scheme, r.Cycles)
			}
		}
	})
}

// FuzzSweep differentially fuzzes the Gray-code delta sweep against the
// full per-mask engine on generated programs: for every seed both engines
// must return reflect.DeepEqual ExhaustiveResults, and the branch-and-bound
// search must land exactly on the sweep's optimum. Object counts are kept
// small so each seed's 2^n comparison stays fast; programs the generator
// grows past the cap are skipped rather than failed.
func FuzzSweep(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 42, 1337} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := progen.Generate(seed, progen.Options{MaxGlobals: 7})
		c, err := PrepareOpts(context.Background(), "fuzz", src, Options{})
		if err != nil {
			t.Fatalf("seed %d: pipeline rejected a progen program: %v\n%s", seed, err, src)
		}
		if len(c.Mod.Objects) > 10 {
			t.Skipf("seed %d: %d objects, too large for differential enumeration", seed, len(c.Mod.Objects))
		}
		cfg := machine.Paper2Cluster(5)
		delta, err := Exhaustive(c, cfg, Options{Workers: 2}, 10)
		if err != nil {
			t.Fatalf("seed %d: delta sweep failed: %v\n%s", seed, err, src)
		}
		full, err := exhaustivePerMask(c, cfg, Options{Workers: 2}, 10)
		if err != nil {
			t.Fatalf("seed %d: full engine failed: %v\n%s", seed, err, src)
		}
		if !reflect.DeepEqual(delta, full) {
			t.Fatalf("seed %d: delta sweep differs from full engine\n%s", seed, src)
		}
		best, err := BestMapping(c, cfg, Options{}, 10)
		if err != nil {
			t.Fatalf("seed %d: best-mapping search failed: %v\n%s", seed, err, src)
		}
		if best.Cycles != delta.Best {
			t.Fatalf("seed %d: branch and bound found %d cycles, sweep best is %d\n%s",
				seed, best.Cycles, delta.Best, src)
		}
		if p := delta.Find(best.Mask); p == nil || p.Cycles != best.Cycles {
			t.Fatalf("seed %d: mask %#x does not achieve the reported optimum\n%s", seed, best.Mask, src)
		}
	})
}
