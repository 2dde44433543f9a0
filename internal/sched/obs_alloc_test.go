package sched

import (
	"testing"

	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/obs"
	"mcpart/internal/profile"
)

// allocFixture builds a small two-function module with a profile, the
// shared input of the observer-overhead tests.
func allocFixture(t testing.TB) (*ir.Module, *profile.Profile, map[*ir.Func][]int, *machine.Config) {
	t.Helper()
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "helper", 1)
	prev := ir.VReg(0)
	for i := 0; i < 8; i++ {
		prev = bd.Emit(ir.OpAdd, ir.Reg(prev), ir.ConstInt(1))
	}
	bd.Ret(ir.Reg(prev))
	bd = ir.NewBuilder(m, "main", 0)
	a := bd.Emit(ir.OpAdd, ir.ConstInt(1), ir.ConstInt(2))
	b := bd.Emit(ir.OpMul, ir.Reg(a), ir.ConstInt(4))
	bd.Emit(ir.OpAdd, ir.Reg(a), ir.Reg(b))
	bd.Ret()
	in := interp.New(m, interp.Options{})
	if _, err := in.RunMain(); err != nil {
		t.Fatal(err)
	}
	asg := map[*ir.Func][]int{}
	for _, f := range m.Funcs {
		av := make([]int, f.NOps)
		for i := range av {
			av[i] = i % 2
		}
		asg[f] = av
	}
	return m, in.Profile(), asg, machine.Paper2Cluster(5)
}

// funcCyclesWork returns the scheduler hot loop of every scheme
// evaluation: FuncCycles over the module through one reusable scratch and
// one block cache per function.
func funcCyclesWork(m *ir.Module, prof *profile.Profile, asg map[*ir.Func][]int, cfg *machine.Config, sc *Scratch) func() {
	bcs := make([]*BlockCache, len(m.Funcs))
	for i, f := range m.Funcs {
		bcs[i] = NewBlockCache(f, NewLoopCtx(f), cfg)
	}
	return func() {
		for i, f := range m.Funcs {
			sc.FuncCycles(bcs[i], asg[f], prof)
		}
	}
}

// TestObserverZeroAllocOverheadFuncCycles is the scheduler half of the
// observability zero-overhead guard: the instrumentation must add zero
// allocations per operation to the warm FuncCycles hot loop — with no
// observer (the default), with one attached (counters are resolved once
// at SetObserver, then bumped with allocation-free atomic adds), and
// after detaching again. All three configurations must allocate exactly
// as much as the uninstrumented scheduler: the same amount as each other.
func TestObserverZeroAllocOverheadFuncCycles(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	m, prof, asg, cfg := allocFixture(t)

	sc := NewScratch()
	work := funcCyclesWork(m, prof, asg, cfg, sc)
	work() // warm the scratch pools
	base := testing.AllocsPerRun(100, work)

	o := obs.New(obs.NewRegistry(), nil, nil)
	sc.SetObserver(o)
	work() // resolve and warm the counters
	attached := testing.AllocsPerRun(100, work)
	if attached != base {
		t.Errorf("attached observer changed hot-loop allocs: %.1f/op vs %.1f/op baseline", attached, base)
	}

	sc.SetObserver(nil)
	detached := testing.AllocsPerRun(100, work)
	if detached != base {
		t.Errorf("detached observer changed hot-loop allocs: %.1f/op vs %.1f/op baseline", detached, base)
	}
}

// TestObservedFuncCyclesCountsMatch pins that the flushed counters agree
// with FuncCycles' own return values — the instrumentation reports the
// computation, it never re-derives it.
func TestObservedFuncCyclesCountsMatch(t *testing.T) {
	m, prof, asg, cfg := allocFixture(t)
	sc := NewScratch()
	o := obs.New(obs.NewRegistry(), nil, nil)
	sc.SetObserver(o)
	var cycles, moves int64
	for _, f := range m.Funcs {
		c, mv := sc.FuncCycles(NewBlockCache(f, NewLoopCtx(f), cfg), asg[f], prof)
		cycles += c
		moves += mv
	}
	snap := o.Registry().Snapshot()
	if got := snap.Value("sched_cycles"); got != cycles {
		t.Errorf("sched_cycles = %d, want %d", got, cycles)
	}
	if got := snap.Value("sched_moves"); got != moves {
		t.Errorf("sched_moves = %d, want %d", got, moves)
	}
	if busy := snap.Value("sched_bus_busy_cycles"); busy < 0 || busy > cycles {
		t.Errorf("sched_bus_busy_cycles = %d out of range [0,%d]", busy, cycles)
	}
}
