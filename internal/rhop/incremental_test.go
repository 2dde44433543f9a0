package rhop

import (
	"math/rand"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/bytecode"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/obs"
	"mcpart/internal/opt"
	"mcpart/internal/pointsto"
	"mcpart/internal/profile"
	"mcpart/internal/sched"
)

// multiFuncSrc exercises multiple functions, call boundaries and a mix of
// hot and cold regions so the refinement loops take nontrivial move
// sequences.
const multiFuncSrc = `
global int a[64];
global int b[64];
global int c[64];
func scale(int x) int {
    return x * 3 + 1;
}
func main() int {
    int i;
    int s = 0;
    int u = 0;
    for (i = 0; i < 64; i = i + 1) {
        a[i] = i * 2;
        b[i] = i + 7;
        c[i] = scale(i);
    }
    for (i = 0; i < 64; i = i + 1) {
        s = s + a[i] * b[i];
        u = u + c[i] * 5;
    }
    if (s > u) {
        s = s - u;
    }
    return s + u;
}`

// branchySrc has innermost loops whose bodies span several blocks, so a
// move that changes a value's home cluster invalidates other blocks of the
// same region: the ones reading the value live-in.
const branchySrc = `
global int a[64];
global int b[64];
func main() int {
    int i;
    int s = 0;
    int t = 0;
    for (i = 0; i < 64; i = i + 1) {
        int x = a[i] * 3;
        int y = b[i] + i;
        if (x > y) {
            s = s + x * y;
            b[i] = x - 1;
        } else {
            t = t + y * 5;
            a[i] = y + 2;
        }
        s = s + (x ^ t);
    }
    return s + t;
}`

// bundledLarge names bundled programs whose optimized, unrolled code has
// blocks of 65-256 ops, where re-estimating a block from its first stale
// op instead of its first op matters most; the first one runs under
// -short.
var bundledLarge = []string{"mesatx", "pegwitenc", "unepic"}

// equivalenceCorpus returns the sources of the equivalence tests: the
// given small sources, then the bundled programs of bundledLarge compiled
// as the evaluation pipeline compiles them.
func equivalenceCorpus(t *testing.T, small ...string) []profiledModule {
	t.Helper()
	var out []profiledModule
	for _, src := range small {
		mod, prof := compileAndProfile(t, src)
		out = append(out, profiledModule{mod, prof})
	}
	names := bundledLarge
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		mod, prof := compileBundled(t, name)
		out = append(out, profiledModule{mod, prof})
	}
	return out
}

// profiledModule is a compiled module with its profile.
type profiledModule struct {
	mod  *ir.Module
	prof *profile.Profile
}

// compileBundled compiles a bundled program as the evaluation pipeline
// does (unrolled 4 times, optimized, points-to analysed) and profiles it
// on the bytecode VM.
func compileBundled(t *testing.T, name string) (*ir.Module, *profile.Profile) {
	t.Helper()
	b, err := bench.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := mclang.CompileUnrolled(b.Source, b.Name, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(mod)
	pointsto.Analyze(mod)
	prog, err := bytecode.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	vm := bytecode.NewVM(prog, profile.Options{})
	if _, err := vm.RunMain(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return mod, vm.Profile()
}

// memLocks locks f's memory ops round-robin over k clusters, as the GDP
// schemes lock them to their objects' homes.
func memLocks(f *ir.Func, k int) Locks {
	locks := Locks{}
	n := 0
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Opcode.IsMem() {
				locks[op.ID] = n % k
				n++
			}
		}
	}
	return locks
}

// TestIncrementalRefinementEquivalence pins the exactness contract of the
// regionEval estimate cache on every function and machine, with no locks:
// see checkRegionEval. The small sources run on six machines, the bundled
// programs on the two-cluster, four-cluster and 2x2 mesh machines.
func TestIncrementalRefinementEquivalence(t *testing.T) {
	small := []*machine.Config{
		machine.Paper2Cluster(1), machine.Paper2Cluster(5), machine.Paper2Cluster(10),
		machine.FourCluster(5), machine.Heterogeneous2(5), machine.RingFour(5),
	}
	for i, in := range equivalenceCorpus(t, wideSrc, multiFuncSrc, branchySrc) {
		machines := small
		if i >= 3 {
			machines = []*machine.Config{machine.Paper2Cluster(5), machine.FourCluster(5), machine.Mesh4(5)}
		}
		for _, mcfg := range machines {
			for _, f := range in.mod.Funcs {
				checkRegionEval(t, f, in.prof, mcfg, nil)
			}
		}
	}
}

// TestIncrementalEquivalenceWithLocks repeats the check with memory ops
// locked (the GDP schemes' configuration), where refinement moves around
// fixed anchors, including the multi-block loop bodies whose live-in homes
// the moves shift.
func TestIncrementalEquivalenceWithLocks(t *testing.T) {
	for i, in := range equivalenceCorpus(t, multiFuncSrc, branchySrc) {
		machines := []*machine.Config{machine.Paper2Cluster(5), machine.FourCluster(5)}
		if i >= 2 {
			machines = append(machines, machine.Mesh4(5))
		}
		for _, mcfg := range machines {
			for _, f := range in.mod.Funcs {
				checkRegionEval(t, f, in.prof, mcfg, memLocks(f, mcfg.NumClusters()))
			}
		}
	}
}

// checkRegionEval drives a regionEval through a seeded random sequence of
// moves on each region of f, in the state refinement sees it: the regions
// before it in heat order placed, the ones after it not yet. After every
// step (one or two moves of unlocked ops, as single-op and pair refinement
// make them) cost() must equal the from-scratch reference estimate
// (EstimateRegionCost).
// Refinement only compares these costs, so exact costs at every step mean
// the incremental cache makes the same decisions a from-scratch estimator
// would.
func checkRegionEval(t *testing.T, f *ir.Func, prof *profile.Profile, mcfg *machine.Config, locks Locks) {
	t.Helper()
	p := Prepare(f, prof, nil)
	final, err := p.NewPartitioner(mcfg, Options{}).Partition(locks)
	if err != nil {
		t.Fatalf("%s %s: %v", mcfg.Name, f.Name, err)
	}
	fp := &FuncPartitioner{p: p, mcfg: mcfg, sc: &scratch{sched: sched.NewScratch()}}
	var ref estScratch
	lc := sched.NewLoopCtx(f)
	k := mcfg.NumClusters()
	rng := rand.New(rand.NewSource(int64(len(f.Name)*131 + k)))
	asg := make([]int, f.NOps)
	for i := range asg {
		asg[i] = -1
	}
	for ri, pre := range p.pre {
		var free []*ir.Op
		for _, op := range pre.regionOps {
			asg[op.ID] = final[op.ID]
			if _, locked := locks[op.ID]; !locked {
				free = append(free, op)
			}
		}
		if len(free) == 0 {
			continue
		}
		re := fp.newRegionEval(pre, asg)
		for step := 0; step <= 64; step++ {
			if step > 0 {
				for moves := 1 + rng.Intn(2); moves > 0; moves-- {
					op, to := free[rng.Intn(len(free))], rng.Intn(k)
					if mcfg.Units(to, machine.KindOf(op.Opcode)) > 0 {
						re.move(op, to)
					}
				}
			}
			if got, want := re.cost(), ref.regionCost(f, pre.region, prof, mcfg, asg, lc); got != want {
				t.Fatalf("%s %s region %d step %d: incremental cost %d, from scratch %d",
					mcfg.Name, f.Name, ri, step, got, want)
			}
		}
		for _, op := range pre.regionOps {
			asg[op.ID] = final[op.ID]
		}
	}
}

// TestOptionsCacheKey pins that the key separates every
// outcome-affecting knob, while ignoring the value-neutral observer.
func TestOptionsCacheKey(t *testing.T) {
	zero := Options{}.CacheKey()
	if (Options{Obs: obs.New(obs.NewRegistry(), nil, nil)}).CacheKey() != zero {
		t.Error("Obs must not change the cache key")
	}
	distinct := []Options{
		{},
		{UniformEdges: true},
		{PairRefine: true},
	}
	seen := map[string]int{}
	for i, o := range distinct {
		k := o.CacheKey()
		if j, dup := seen[k]; dup {
			t.Errorf("options %d and %d collide on key %q", i, j, k)
		}
		seen[k] = i
	}
}
