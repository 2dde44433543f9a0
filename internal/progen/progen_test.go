package progen

import (
	"testing"

	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/opt"
	"mcpart/internal/pointsto"
	"mcpart/internal/rhop"
	"mcpart/internal/sched"
)

const fuzzSeeds = 60

// run compiles and executes one generated program, failing the test on any
// front-end or runtime error.
func run(t *testing.T, src string, unroll int, optimize bool) int64 {
	t.Helper()
	mod, err := mclang.CompileUnrolled(src, "gen", unroll)
	if err != nil {
		t.Fatalf("compile: %v\nsource:\n%s", err, src)
	}
	if optimize {
		opt.Optimize(mod)
		if err := ir.Verify(mod); err != nil {
			t.Fatalf("optimizer broke IR: %v\nsource:\n%s", err, src)
		}
	}
	v, err := interp.New(mod, interp.Options{MaxSteps: 30_000_000}).RunMain()
	if err != nil {
		t.Fatalf("run: %v\nsource:\n%s", err, src)
	}
	return v.I
}

func TestGeneratedProgramsCompileAndTerminate(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		src := Generate(seed, Options{})
		run(t, src, 1, false)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		if Generate(seed, Options{}) != Generate(seed, Options{}) {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
	}
}

func TestOptimizerPreservesGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		src := Generate(seed, Options{})
		plain := run(t, src, 1, false)
		opted := run(t, src, 1, true)
		if plain != opted {
			t.Fatalf("seed %d: optimizer changed result %d -> %d\nsource:\n%s",
				seed, plain, opted, src)
		}
	}
}

func TestUnrollPreservesGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		src := Generate(seed, Options{})
		base := run(t, src, 1, false)
		for _, u := range []int{2, 4} {
			if got := run(t, src, u, true); got != base {
				t.Fatalf("seed %d unroll %d: result %d -> %d\nsource:\n%s",
					seed, u, base, got, src)
			}
		}
	}
}

func TestPointsToSoundOnGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds/2; seed++ {
		src := Generate(seed, Options{})
		mod, err := mclang.CompileUnrolled(src, "gen", 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt.Optimize(mod)
		pointsto.Analyze(mod)
		in := interp.New(mod, interp.Options{MaxSteps: 30_000_000})
		if _, err := in.RunMain(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for op, objs := range in.Profile().OpObj {
			if !op.Opcode.IsMem() {
				continue
			}
			may := map[int]bool{}
			for _, id := range op.MayAccess {
				may[id] = true
			}
			for objID := range objs {
				if !may[objID] {
					t.Fatalf("seed %d: op %s touched object %d outside MayAccess %v\nsource:\n%s",
						seed, op, objID, op.MayAccess, src)
				}
			}
		}
	}
}

func TestPipelineOnGeneratedPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("slow fuzz")
	}
	cfg := machine.Paper2Cluster(5)
	for seed := int64(0); seed < fuzzSeeds/3; seed++ {
		src := Generate(seed, Options{})
		mod, err := mclang.CompileUnrolled(src, "gen", 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt.Optimize(mod)
		pointsto.Analyze(mod)
		in := interp.New(mod, interp.Options{MaxSteps: 30_000_000})
		if _, err := in.RunMain(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof := in.Profile()
		var cycles, moves int64
		for _, f := range mod.Funcs {
			asg, err := rhop.Prepare(f, prof, nil).NewPartitioner(cfg, rhop.Options{}).Partition(nil)
			if err != nil {
				t.Fatalf("seed %d: rhop: %v\nsource:\n%s", seed, err, src)
			}
			c, m := sched.NewScratch().FuncCycles(sched.NewBlockCache(f, sched.NewLoopCtx(f), cfg), asg, prof)
			cycles += c
			moves += m
		}
		if cycles <= 0 || moves < 0 {
			t.Fatalf("seed %d: cycles=%d moves=%d", seed, cycles, moves)
		}
	}
}

func TestIRRoundTripOnGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds/2; seed++ {
		src := Generate(seed, Options{})
		mod, err := mclang.Compile(src, "gen")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		text := ir.Print(mod)
		m2, err := ir.ParseModule(text)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if ir.Print(m2) != text {
			t.Fatalf("seed %d: round trip differs", seed)
		}
	}
}
