package rhop

import (
	"math/rand"
	"testing"

	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
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

// TestIncrementalRefinementEquivalence pins the exactness contract of the
// regionEval estimate cache on every function and machine, with no locks:
// see checkRegionEval.
func TestIncrementalRefinementEquivalence(t *testing.T) {
	for _, src := range []string{wideSrc, multiFuncSrc, branchySrc} {
		mod, prof := compileAndProfile(t, src)
		for _, mcfg := range []*machine.Config{
			machine.Paper2Cluster(1), machine.Paper2Cluster(5), machine.Paper2Cluster(10),
			machine.FourCluster(5), machine.Heterogeneous2(5), machine.RingFour(5),
		} {
			for _, f := range mod.Funcs {
				checkRegionEval(t, f, prof, mcfg, nil)
			}
		}
	}
}

// TestIncrementalEquivalenceWithLocks repeats the check with memory ops
// locked (the GDP schemes' configuration), where refinement moves around
// fixed anchors.
func TestIncrementalEquivalenceWithLocks(t *testing.T) {
	mod, prof := compileAndProfile(t, multiFuncSrc)
	mcfg := machine.Paper2Cluster(5)
	for _, f := range mod.Funcs {
		locks := Locks{}
		n := 0
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if op.Opcode.IsMem() {
					locks[op.ID] = n % 2
					n++
				}
			}
		}
		checkRegionEval(t, f, prof, mcfg, locks)
	}
}

// checkRegionEval drives a regionEval through a seeded random sequence of
// moves on each region of f, in the state refinement sees it: the regions
// before it in heat order placed, the ones after it not yet. After every
// step (one or two moves of unlocked ops, as single-op and pair refinement
// make them) cost() must equal EstimateRegionCost's from-scratch estimate.
// Refinement only compares these costs, so exact costs at every step mean
// the incremental cache makes the same decisions a from-scratch estimator
// would.
func checkRegionEval(t *testing.T, f *ir.Func, prof *interp.Profile, mcfg *machine.Config, locks Locks) {
	t.Helper()
	p := Prepare(f, prof, nil)
	final, err := p.Partition(mcfg, locks, Options{})
	if err != nil {
		t.Fatalf("%s %s: %v", mcfg.Name, f.Name, err)
	}
	fp := &FuncPartitioner{p: p, mcfg: mcfg, sc: &scratch{sched: sched.NewScratch()}}
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
			if got, want := re.cost(), EstimateRegionCost(f, pre.region, prof, mcfg, asg); got != want {
				t.Fatalf("%s %s region %d step %d: incremental cost %d, from scratch %d",
					mcfg.Name, f.Name, ri, step, got, want)
			}
		}
		for _, op := range pre.regionOps {
			asg[op.ID] = final[op.ID]
		}
	}
}

// TestOptionsCacheKey pins that the key resolves defaults (zero and
// explicit-default Options share results) and separates every
// outcome-affecting knob, while ignoring the value-neutral Workers.
func TestOptionsCacheKey(t *testing.T) {
	zero := Options{}.CacheKey()
	if explicit := (Options{RefinePasses: 4, BalanceTol: 0.4}).CacheKey(); explicit != zero {
		t.Errorf("explicit defaults key %q != zero key %q", explicit, zero)
	}
	if (Options{Workers: 3}).CacheKey() != zero {
		t.Error("Workers must not change the cache key")
	}
	distinct := []Options{
		{},
		{RefinePasses: 2},
		{BalanceTol: 0.2},
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
