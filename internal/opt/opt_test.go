package opt

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/cfg"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/mclang"
	"mcpart/internal/progen"
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

// fuzzSeeds reads the string/int corpus entries of one fuzz target's
// testdata directory ("go test fuzz v1" files), one slice of values per
// file.
func fuzzSeeds(t *testing.T, dir string) [][]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus under %s: %v", dir, err)
	}
	var out [][]string
	for _, name := range files {
		fh, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		var vals []string
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			line := sc.Text()
			open, close := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
			if open < 0 || close < open {
				continue // the version header
			}
			v := line[open+1 : close]
			if strings.HasPrefix(line, "string(") {
				if v, err = strconv.Unquote(v); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			vals = append(vals, v)
		}
		fh.Close()
		out = append(out, vals)
	}
	return out
}

// TestDCEMatchesFixpoint pins the worklist dead-code pass to the
// reference fixpoint: the whole pipeline over each pass leaves
// byte-identical IR and equal statistics on the bundled programs, on
// generated programs, and on the FuzzCompile and FuzzPipeline seeds, at
// the unroll factors the pipeline and the fuzzers use.
func TestDCEMatchesFixpoint(t *testing.T) {
	type input struct {
		name, src string
		unroll    int
		fuzz      bool // a FuzzCompile seed, which the front end may reject
	}
	var inputs []input
	for _, b := range bench.All() {
		inputs = append(inputs, input{b.Name, b.Source, 4, false}, input{b.Name, b.Source, 1, false})
	}
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	pipeline := []int64{1, 7, 42, 1337, 99991}
	for _, vals := range fuzzSeeds(t, "../eval/testdata/fuzz/FuzzPipeline") {
		seed, err := strconv.ParseInt(vals[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		pipeline = append(pipeline, seed)
	}
	for i := int64(0); i < int64(seeds); i++ {
		pipeline = append(pipeline, i)
	}
	for _, seed := range pipeline {
		src := progen.Generate(seed, progen.Options{})
		name := "seed" + strconv.FormatInt(seed, 10)
		inputs = append(inputs, input{name, src, 4, false}, input{name, src, 1, false})
	}
	compileSeeds := []input{
		{"compile0", "func main() int { return 0; }", 1, true},
		{"compile1", "int g[8]; func main() int { int i; i = 0; while (i < 8) { g[i & 7] = i; i = i + 1; } return g[3]; }", 4, true},
		{"compile2", "func sum(a int, b int) int { return a + b; } func main() int { return sum(1, 2); }", 2, true},
		{"compile3", "func main() int { int *p; p = malloc(32); p[1] = 9; return p[1]; }", 3, true},
	}
	for i, vals := range fuzzSeeds(t, "../mclang/testdata/fuzz/FuzzCompile") {
		unroll, err := strconv.Atoi(vals[1])
		if err != nil {
			t.Fatal(err)
		}
		compileSeeds = append(compileSeeds, input{"corpus" + strconv.Itoa(i), vals[0], unroll, true})
	}
	inputs = append(inputs, compileSeeds...)

	for _, in := range inputs {
		m1, err := mclang.CompileUnrolled(in.src, in.name, in.unroll)
		if err != nil && in.fuzz {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		m2, err := mclang.CompileUnrolled(in.src, in.name, in.unroll)
		if err != nil {
			t.Fatal(err)
		}
		got, want := Optimize(m1), optimize(m2, dceFixpoint)
		if got != want {
			t.Errorf("%s unroll %d: stats %v, reference %v", in.name, in.unroll, got, want)
		}
		if ir.Print(m1) != ir.Print(m2) {
			t.Errorf("%s unroll %d: optimized IR differs from the reference", in.name, in.unroll)
		}
	}
}
