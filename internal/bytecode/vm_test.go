package bytecode_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/bytecode"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/mclang"
	"mcpart/internal/obs"
	"mcpart/internal/opt"
	"mcpart/internal/pointsto"
	"mcpart/internal/profile"
	"mcpart/internal/progen"
)

// mustModule runs the same front-end pipeline eval.Prepare uses: parse and
// unroll, optionally optimize, then points-to analysis.
func mustModule(t testing.TB, src, name string, unroll int, optimize bool) *ir.Module {
	t.Helper()
	mod, err := mclang.CompileUnrolled(src, name, unroll)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	if optimize {
		opt.Optimize(mod)
	}
	pointsto.Analyze(mod)
	return mod
}

// diffRun executes mod on both engines under identical options and asserts
// they agree: same success/failure, same budget resource on failure, and on
// success the same checksum and a DeepEqual-identical Profile. It returns
// the tree-walker's result for further pinning by the caller.
func diffRun(t testing.TB, mod *ir.Module, opts interp.Options) (profile.Value, error) {
	t.Helper()
	tree := interp.New(mod, opts)
	tv, terr := tree.RunMain()

	prog, err := bytecode.Compile(mod)
	if err != nil {
		t.Fatalf("bytecode compile: %v", err)
	}
	vm := bytecode.NewVM(prog, opts)
	vv, verr := vm.RunMain()

	if (terr == nil) != (verr == nil) {
		t.Fatalf("engines disagree on failure: tree err=%v, vm err=%v", terr, verr)
	}
	if terr != nil {
		var tb, vb *profile.BudgetError
		if errors.As(terr, &tb) {
			if !errors.As(verr, &vb) {
				t.Fatalf("tree hit %s budget but vm failed with %v", tb.Resource, verr)
			}
			if tb.Resource != vb.Resource {
				t.Fatalf("budget resource mismatch: tree %s, vm %s", tb.Resource, vb.Resource)
			}
		}
		return tv, terr
	}
	if tv.Kind != vv.Kind || tv.I != vv.I || tv.F != vv.F {
		t.Fatalf("checksum mismatch: tree %s, vm %s", tv, vv)
	}
	if !reflect.DeepEqual(tree.Profile(), vm.Profile()) {
		t.Fatalf("profile mismatch:\ntree: %+v\nvm:   %+v", tree.Profile(), vm.Profile())
	}
	return tv, nil
}

// TestSuiteEquivalence pins VM-vs-tree checksum and Profile equality across
// all seed benchmarks, through both front-end configurations the pipeline
// uses (plain, and unrolled+optimized as eval.Prepare runs it).
func TestSuiteEquivalence(t *testing.T) {
	suite := bench.All()
	if len(suite) == 0 {
		t.Fatal("empty benchmark suite")
	}
	for _, bm := range suite {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range []struct {
				tag      string
				unroll   int
				optimize bool
			}{{"plain", 1, false}, {"opt", 4, true}} {
				mod := mustModule(t, bm.Source, bm.Name, cfg.unroll, cfg.optimize)
				v, err := diffRun(t, mod, interp.Options{MaxSteps: 10_000_000})
				if err != nil {
					t.Fatalf("%s: %v", cfg.tag, err)
				}
				if v.I != bm.Want {
					t.Fatalf("%s: checksum %d, want %d", cfg.tag, v.I, bm.Want)
				}
			}
		})
	}
}

// TestProgenEquivalence runs the differential check over generated
// programs, including configurations larger than the fuzz defaults.
func TestProgenEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99, 1337, 4242, 99991} {
		for _, po := range []progen.Options{
			{},
			{MaxGlobals: 10, MaxFuncs: 6, MaxStmtDepth: 4, MaxLoopTrip: 20},
		} {
			src := progen.Generate(seed, po)
			mod := mustModule(t, src, fmt.Sprintf("progen%d", seed), 4, true)
			if _, err := diffRun(t, mod, interp.Options{}); err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
		}
	}
}

// TestStepBudgetEquivalence pins that both engines charge steps
// identically: for a range of step caps, either both complete or both
// fail with the same typed step-budget error.
func TestStepBudgetEquivalence(t *testing.T) {
	src := progen.Generate(42, progen.Options{})
	mod := mustModule(t, src, "budget", 4, true)
	for _, cap := range []int64{1, 10, 100, 1000, 10_000, 100_000} {
		diffRun(t, mod, interp.Options{MaxSteps: cap})
	}
}

// mallocFixture builds main() { p = malloc(words*8); p[0]=7; return p[0] }
// with a heap site, for byte-budget and malloc-profile tests.
func mallocFixture(t *testing.T, size int64) *ir.Module {
	t.Helper()
	m := ir.NewModule("t")
	site := m.AddObject(&ir.Object{Name: "malloc@main:0", Kind: ir.ObjHeap})
	bd := ir.NewBuilder(m, "main", 0)
	p := bd.Malloc(site, ir.ConstInt(size))
	if size > 0 {
		bd.Store(ir.Reg(p), ir.ConstInt(7))
		v := bd.Load(ir.Reg(p))
		bd.Ret(ir.Reg(v))
	} else {
		bd.Ret(ir.ConstInt(0))
	}
	pointsto.Analyze(m)
	return m
}

// TestByteBudgetEquivalence pins the MaxBytes semantics: identical typed
// errors when the heap budget trips, identical success when it doesn't.
func TestByteBudgetEquivalence(t *testing.T) {
	mod := mallocFixture(t, 64)
	if _, err := diffRun(t, mod, interp.Options{MaxBytes: 32}); err == nil {
		t.Fatal("64-byte malloc under a 32-byte budget succeeded")
	} else {
		var be *profile.BudgetError
		if !errors.As(err, &be) || be.Resource != "byte" {
			t.Fatalf("want byte BudgetError, got %v", err)
		}
	}
	if _, err := diffRun(t, mod, interp.Options{MaxBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMallocZeroProfile pins a reconstruction edge: a heap site whose only
// allocation is zero bytes must still appear in ObjBytes (with 0), exactly
// as the tree-walker records it.
func TestMallocZeroProfile(t *testing.T) {
	diffRun(t, mallocFixture(t, 0), interp.Options{})
}

// TestDiscardedDstEquivalence pins the scratch-register path: an op whose
// result is discarded (Dst == NoReg, as a dead-code pass can leave behind
// for an effectful op) must execute, count, and profile identically.
func TestDiscardedDstEquivalence(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddObject(&ir.Object{Name: "g", Kind: ir.ObjGlobal, Size: 16, Init: []int64{3, 4}})
	bd := ir.NewBuilder(m, "main", 0)
	a := bd.Addr(g)
	v := bd.Load(ir.Reg(a))
	bd.Load(ir.Reg(a)) // result discarded below
	bd.Ret(ir.Reg(v))
	// Discard the second load's destination the way an analysis that drops
	// uses (but keeps effectful ops) would. (No points-to pass here: it
	// requires intact dsts, and the engines don't consume MayAccess.)
	ops := m.Funcs[0].Blocks[0].Ops
	ops[len(ops)-2].Dst = ir.NoReg
	if v, err := diffRun(t, m, interp.Options{}); err != nil || v.I != 3 {
		t.Fatalf("got %s, %v; want 3", v, err)
	}
}

// TestCallDepthEquivalence pins that unbounded recursion fails cleanly on
// both engines (the depth guard, not a host stack overflow).
func TestCallDepthEquivalence(t *testing.T) {
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "f", 1)
	n := bd.Emit(ir.OpAdd, ir.Reg(0), ir.ConstInt(1))
	r := bd.Call("f", true, ir.Reg(n))
	bd.Ret(ir.Reg(r))
	bd = ir.NewBuilder(m, "main", 0)
	r = bd.Call("f", true, ir.ConstInt(0))
	bd.Ret(ir.Reg(r))
	pointsto.Analyze(m)
	if _, err := diffRun(t, m, interp.Options{}); err == nil {
		t.Fatal("unbounded recursion succeeded")
	}
}

// TestTraceMemEquivalence pins that the VM drives TraceMem with the exact
// event stream the tree-walker produces: same order, same object and
// instance IDs, same offsets, same load/store flags.
func TestTraceMemEquivalence(t *testing.T) {
	bm, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		obj     int
		inst    int64
		off     int64
		isStore bool
	}
	collect := func(run func(interp.Options) error) []ev {
		var evs []ev
		err := run(interp.Options{TraceMem: func(objID int, inst int64, off int64, isStore bool) {
			evs = append(evs, ev{objID, inst, off, isStore})
		}})
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	mod := mustModule(t, bm.Source, bm.Name, 4, true)
	treeEvs := collect(func(o interp.Options) error {
		_, err := interp.New(mod, o).RunMain()
		return err
	})
	prog, err := bytecode.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	vmEvs := collect(func(o interp.Options) error {
		_, err := bytecode.NewVM(prog, o).RunMain()
		return err
	})
	if len(treeEvs) == 0 {
		t.Fatal("fir produced no memory trace")
	}
	if !reflect.DeepEqual(treeEvs, vmEvs) {
		t.Fatalf("trace mismatch: %d tree events vs %d vm events", len(treeEvs), len(vmEvs))
	}
}

// TestMultiRunAccumulation pins that profile state accumulates across
// multiple Run calls on one VM exactly as it does on one Interp.
func TestMultiRunAccumulation(t *testing.T) {
	bm, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	mod := mustModule(t, bm.Source, bm.Name, 1, false)
	tree := interp.New(mod, interp.Options{})
	prog, err := bytecode.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	vm := bytecode.NewVM(prog, interp.Options{})
	for i := 0; i < 3; i++ {
		tv, terr := tree.RunMain()
		vv, verr := vm.RunMain()
		if terr != nil || verr != nil {
			t.Fatalf("run %d: tree err=%v, vm err=%v", i, terr, verr)
		}
		if tv.I != vv.I {
			t.Fatalf("run %d: checksum mismatch %d vs %d", i, tv.I, vv.I)
		}
	}
	if !reflect.DeepEqual(tree.Profile(), vm.Profile()) {
		t.Fatal("accumulated profiles diverge after repeated runs")
	}
}

// TestCompileRejects pins that malformed modules are rejected at compile
// time rather than trapped at run time.
func TestCompileRejects(t *testing.T) {
	unknownCallee := ir.NewModule("t")
	bd := ir.NewBuilder(unknownCallee, "main", 0)
	bd.Call("missing", false)
	bd.Ret()

	badArity := ir.NewModule("t")
	bd = ir.NewBuilder(badArity, "f", 2)
	bd.Ret(ir.Reg(0))
	bd = ir.NewBuilder(badArity, "main", 0)
	bd.Call("f", false, ir.ConstInt(1))
	bd.Ret()

	schedOnly := ir.NewModule("t")
	bd = ir.NewBuilder(schedOnly, "main", 0)
	bd.Emit(ir.OpMove, ir.ConstInt(1))
	bd.Ret()

	noTerm := ir.NewModule("t")
	bd = ir.NewBuilder(noTerm, "main", 0)
	bd.Emit(ir.OpAdd, ir.ConstInt(1), ir.ConstInt(2))

	for name, m := range map[string]*ir.Module{
		"unknown callee": unknownCallee,
		"bad arity":      badArity,
		"scheduler op":   schedOnly,
		"no terminator":  noTerm,
	} {
		if _, err := bytecode.Compile(m); err == nil {
			t.Errorf("%s: Compile succeeded, want error", name)
		}
	}
}

// TestObserverZeroAllocOverheadVM is the VM's half of the observability
// zero-overhead guard, matching the sched/rhop ones: attaching an observer
// must not change per-run allocations of the warm dispatch loop (counters
// resolve once in SetObserver and flush once per Run), and a nil observer
// costs nothing.
func TestObserverZeroAllocOverheadVM(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	src := progen.Generate(7, progen.Options{})
	mod := mustModule(t, src, "alloc", 1, false)
	prog, err := bytecode.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	vm := bytecode.NewVM(prog, interp.Options{})
	work := func() {
		if _, err := vm.RunMain(); err != nil {
			t.Fatal(err)
		}
	}
	work() // warm the register slab and frame stack
	base := testing.AllocsPerRun(20, work)

	o := obs.New(obs.NewRegistry(), nil, nil)
	vm.SetObserver(o)
	work() // resolve and warm the counters
	attached := testing.AllocsPerRun(20, work)
	if attached != base {
		t.Errorf("attached observer changed per-run allocs: %.1f vs %.1f baseline", attached, base)
	}

	vm.SetObserver(nil)
	detached := testing.AllocsPerRun(20, work)
	if detached != base {
		t.Errorf("detached observer changed per-run allocs: %.1f vs %.1f baseline", detached, base)
	}
}

// TestObservedVMCountsMatch pins that the flushed counters agree with the
// VM's own accounting: interp_steps and interp_dispatches report the steps
// executed, interp_alloc_bytes the bytes held.
func TestObservedVMCountsMatch(t *testing.T) {
	mod := mallocFixture(t, 64)
	prog, err := bytecode.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	vm := bytecode.NewVM(prog, interp.Options{})
	reg := obs.NewRegistry()
	vm.SetObserver(obs.New(reg, nil, nil))
	if _, err := vm.RunMain(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("interp_steps").Value(); got != vm.Steps() {
		t.Errorf("interp_steps = %d, want %d", got, vm.Steps())
	}
	if got := reg.Counter("interp_dispatches").Value(); got != vm.Steps() {
		t.Errorf("interp_dispatches = %d, want %d", got, vm.Steps())
	}
	if got := reg.Counter("interp_alloc_bytes").Value(); got != vm.AllocBytes() {
		t.Errorf("interp_alloc_bytes = %d, want %d", got, vm.AllocBytes())
	}
}
