package opt

import (
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/cfg"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/mclang"
	"mcpart/internal/testprog"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := mclang.Compile(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func run(t *testing.T, m *ir.Module) int64 {
	t.Helper()
	v, err := interp.New(m, interp.Options{}).RunMain()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v.I
}

func countOps(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NOps
	}
	return n
}

func TestConstantFolding(t *testing.T) {
	m := compile(t, `func main() int { return (3 + 4) * 2 - 6 / 3; }`)
	before := run(t, m)
	s := Optimize(m)
	if s.Folded == 0 {
		t.Error("nothing folded")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if after := run(t, m); after != before {
		t.Fatalf("semantics changed: %d -> %d", before, after)
	}
	// The whole expression is constant; main should be tiny.
	if n := m.Func("main").NOps; n > 2 {
		t.Errorf("main still has %d ops after folding", n)
	}
}

func TestDivByZeroNotFolded(t *testing.T) {
	m := compile(t, `
func main() int {
    int guard = 0;
    if (guard == 1) { return 1 / 0; }
    return 7;
}`)
	Optimize(m)
	if got := run(t, m); got != 7 {
		t.Fatalf("got %d", got)
	}
	// The division must survive (unfolded) or be removed as dead — either
	// way the program must not trap.
}

func TestCopyPropagationAndDCE(t *testing.T) {
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "main", 0)
	a := bd.Emit(ir.OpMov, ir.ConstInt(5))
	bb := bd.Emit(ir.OpMov, ir.Reg(a))
	c := bd.Emit(ir.OpAdd, ir.Reg(bb), ir.ConstInt(1))
	bd.Emit(ir.OpMul, ir.Reg(a), ir.ConstInt(100)) // dead
	bd.Ret(ir.Reg(c))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	before := run(t, m)
	s := Optimize(m)
	if s.Propagated == 0 || s.Eliminated == 0 {
		t.Errorf("stats = %+v; expected propagation and DCE", s)
	}
	if after := run(t, m); after != before || after != 6 {
		t.Fatalf("got %d, want 6", after)
	}
	if m.Func("main").NOps > 2 {
		t.Errorf("main still has %d ops", m.Func("main").NOps)
	}
}

func TestCSERemovesRedundantLoads(t *testing.T) {
	m := compile(t, `
global int g[4];
func main() int {
    int a = g[1];
    int b = g[1];
    return a + b;
}`)
	countLoads := func() int {
		n := 0
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for _, op := range b.Ops {
					if op.Opcode == ir.OpLoad {
						n++
					}
				}
			}
		}
		return n
	}
	before := countLoads()
	res := run(t, m)
	s := Optimize(m)
	if s.CSEd == 0 {
		t.Error("no CSE performed (redundant load should merge)")
	}
	if countLoads() >= before {
		t.Errorf("load count did not shrink: %d -> %d", before, countLoads())
	}
	if got := run(t, m); got != res {
		t.Fatalf("semantics changed")
	}
}

func TestCSERespectsStores(t *testing.T) {
	m := compile(t, `
global int g;
func main() int {
    int a = g;
    g = a + 5;
    int b = g;
    return b;
}`)
	Optimize(m)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if got := run(t, m); got != 5 {
		t.Fatalf("load CSE crossed a store: got %d, want 5", got)
	}
}

func TestCSERespectsRedefinition(t *testing.T) {
	// a+b computed, then a redefined, then a+b again: must not merge.
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "main", 0)
	a := bd.NewReg()
	bd.EmitTo(a, ir.OpMov, ir.ConstInt(1))
	b1 := bd.Emit(ir.OpAdd, ir.Reg(a), ir.ConstInt(10))
	bd.EmitTo(a, ir.OpMov, ir.ConstInt(2))
	b2 := bd.Emit(ir.OpAdd, ir.Reg(a), ir.ConstInt(10))
	r := bd.Emit(ir.OpMul, ir.Reg(b1), ir.Reg(b2)) // 11 * 12
	bd.Ret(ir.Reg(r))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	Optimize(m)
	if got := run(t, m); got != 132 {
		t.Fatalf("got %d, want 132", got)
	}
}

// TestCSESelfRedefinition pins value numbering on an op that redefines
// its own operand: after v = add v, 1, a later add v, 1 reads the new v
// and must not become a copy of it.
func TestCSESelfRedefinition(t *testing.T) {
	for _, c := range []struct {
		src  string
		want int64
	}{
		{`func f(int i) int { int j; i = i + 1; j = i + 1; return i * 100 + j; }
func main() int { return f(5); }`, 607},
		{`global int g[4];
func main() int {
    int i;
    int s = 0;
    for (i = 0; i < 4; i = i + 1) {
        s = s + 1;
        g[i] = s + 1;
    }
    return s * 100 + g[3];
}`, 405},
	} {
		m := compile(t, c.src)
		if got := run(t, m); got != c.want {
			t.Fatalf("unoptimized: got %d, want %d", got, c.want)
		}
		Optimize(m)
		if got := run(t, m); got != c.want {
			t.Errorf("optimized: got %d, want %d\n%s", got, c.want, ir.Print(m))
		}
	}
}

func TestCallsAndStoresSurviveDCE(t *testing.T) {
	m := compile(t, `
global int g;
func bump() int { g = g + 1; return g; }
func main() int {
    bump();
    bump();
    return g;
}`)
	Optimize(m)
	if got := run(t, m); got != 2 {
		t.Fatalf("calls were eliminated: got %d, want 2", got)
	}
}

func TestOpIDsDenseAfterOptimize(t *testing.T) {
	m := compile(t, `
global int t[8];
func main() int {
    int i;
    int s = 0;
    for (i = 0; i < 8; i = i + 1) { s = s + t[i] + 0 * 5; }
    return s;
}`)
	Optimize(m)
	for _, f := range m.Funcs {
		ops := f.OpsByID()
		for i, op := range ops {
			if op == nil {
				t.Fatalf("%s: op id %d missing after renumber", f.Name, i)
			}
		}
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

// The strongest guarantee: every bundled benchmark computes the same
// checksum with and without optimization, and the optimizer shrinks them.
func TestBenchmarksPreservedAndShrunk(t *testing.T) {
	shrunk := 0
	for _, b := range bench.All() {
		m1, err := mclang.Compile(b.Source, b.Name)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := mclang.Compile(b.Source, b.Name)
		if err != nil {
			t.Fatal(err)
		}
		Optimize(m2)
		if err := ir.Verify(m2); err != nil {
			t.Fatalf("%s: invalid IR after opt: %v", b.Name, err)
		}
		v1 := run(t, m1)
		v2 := run(t, m2)
		if v1 != v2 {
			t.Errorf("%s: checksum changed %d -> %d", b.Name, v1, v2)
		}
		if countOps(m2) < countOps(m1) {
			shrunk++
		}
	}
	if shrunk < len(bench.All())/2 {
		t.Errorf("optimizer shrank only %d of %d benchmarks", shrunk, len(bench.All()))
	}
}

// dceFixpoint is the reference dead-code pass: rebuild def-use chains
// (liveness included) and remove every pure op without uses, until a
// sweep removes nothing.
func dceFixpoint(f *ir.Func) int {
	removed := 0
	for {
		du := cfg.ComputeDefUse(f)
		ops := f.OpsByID()
		dead := map[int]bool{}
		for _, op := range ops {
			if op == nil || op.Dst == ir.NoReg {
				continue
			}
			switch op.Opcode {
			case ir.OpStore, ir.OpBr, ir.OpBrCond, ir.OpRet, ir.OpCall, ir.OpMalloc:
				continue
			}
			if len(du.UsesOf[op.ID]) == 0 {
				dead[op.ID] = true
			}
		}
		if len(dead) == 0 {
			return removed
		}
		for _, b := range f.Blocks {
			kept := b.Ops[:0]
			for _, op := range b.Ops {
				if dead[op.ID] {
					removed++
					continue
				}
				kept = append(kept, op)
			}
			b.Ops = kept
		}
		renumber(f)
	}
}

// checkAgainstReference optimizes every testprog.Inputs program twice, with
// Optimize and with the pipeline over the given passes, and requires
// byte-identical IR and equal statistics.
func checkAgainstReference(t *testing.T, dce func(*ir.Func) int, cse func(*ir.Func, *ir.Block) int) {
	for _, in := range testprog.Inputs(t) {
		m1, err := in.Compile()
		if err != nil && in.Fuzz {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		m2, err := in.Compile()
		if err != nil {
			t.Fatal(err)
		}
		got, want := Optimize(m1), optimize(m2, dce, cse)
		if got != want {
			t.Errorf("%s unroll %d: stats %v, reference %v", in.Name, in.Unroll, got, want)
		}
		if ir.Print(m1) != ir.Print(m2) {
			t.Errorf("%s unroll %d: optimized IR differs from the reference", in.Name, in.Unroll)
		}
	}
}

// TestDCEMatchesFixpoint pins the worklist dead-code pass to the
// reference fixpoint: the whole pipeline over each pass leaves
// byte-identical IR and equal statistics on testprog.Inputs.
func TestDCEMatchesFixpoint(t *testing.T) {
	var cs cse
	checkAgainstReference(t, dceFixpoint, cs.block)
}

// TestCSEMatchesReference pins the versioned value-numbering pass to the
// reference that invalidates by scanning every available entry: the whole
// pipeline over each pass leaves byte-identical IR and equal statistics on
// testprog.Inputs.
func TestCSEMatchesReference(t *testing.T) {
	var dc deadCode
	checkAgainstReference(t, dc.run, cseBlockRef)
}

// cseBlockRef is the reference value numbering: a map per block, and every
// register definition scans the whole map for the entries it retires.
func cseBlockRef(f *ir.Func, b *ir.Block) int {
	changed := 0
	type key struct {
		opcode ir.Opcode
		nargs  int // a zero Operand equals Reg(0); arity disambiguates
		a0, a1 ir.Operand
		obj    *ir.Object
		epoch  int
	}
	avail := map[key]ir.VReg{}
	epoch := 0
	keyOf := func(op *ir.Op) (key, bool) {
		k := key{opcode: op.Opcode, obj: op.Obj, nargs: len(op.Args)}
		switch len(op.Args) {
		case 2:
			k.a1 = op.Args[1]
			fallthrough
		case 1:
			k.a0 = op.Args[0]
		}
		switch op.Opcode {
		case ir.OpLoad:
			k.epoch = epoch
			return k, true
		case ir.OpAddr, ir.OpMov,
			ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpNeg, ir.OpNot,
			ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
			ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFNeg,
			ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE,
			ir.OpIToF, ir.OpFToI:
			return k, true
		}
		return k, false
	}
	// A redefinition of a register invalidates every availability entry
	// mentioning it (operand or result).
	invalidate := func(r ir.VReg) {
		for k, res := range avail {
			if res == r ||
				(k.nargs >= 1 && k.a0.Kind == ir.OperReg && k.a0.Reg == r) ||
				(k.nargs >= 2 && k.a1.Kind == ir.OperReg && k.a1.Reg == r) {
				delete(avail, k)
			}
		}
	}
	for _, op := range b.Ops {
		if op.Opcode == ir.OpStore || op.Opcode == ir.OpCall || op.Opcode == ir.OpMalloc {
			epoch++
		}
		if op.Dst == ir.NoReg {
			continue
		}
		if k, ok := keyOf(op); ok && op.Opcode != ir.OpMov {
			if prev, hit := avail[k]; hit && prev != op.Dst {
				op.Opcode = ir.OpMov
				op.Args = []ir.Operand{ir.Reg(prev)}
				op.Obj = nil
				invalidate(op.Dst)
				changed++
				continue
			}
			invalidate(op.Dst)
			// An op redefining one of its operands computes nothing a
			// later op with the same operands would.
			if !(k.nargs >= 1 && k.a0.Kind == ir.OperReg && k.a0.Reg == op.Dst) &&
				!(k.nargs >= 2 && k.a1.Kind == ir.OperReg && k.a1.Reg == op.Dst) {
				avail[k] = op.Dst
			}
			continue
		}
		invalidate(op.Dst)
	}
	return changed
}
