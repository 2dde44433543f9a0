package interp

import (
	"strings"
	"testing"
	"testing/quick"

	"mcpart/internal/ir"
	"mcpart/internal/mclang"
	"mcpart/internal/profile"
)

func run(t *testing.T, src string) (profile.Value, *profile.Profile) {
	t.Helper()
	mod, err := mclang.Compile(src, "t")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	in := New(mod, Options{})
	v, err := in.RunMain()
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	return v, in.Profile()
}

func wantI(t *testing.T, v profile.Value, want int64) {
	t.Helper()
	if v.Kind != profile.ValInt || v.I != want {
		t.Fatalf("result = %s, want %d", v, want)
	}
}

func TestArithmetic(t *testing.T) {
	v, _ := run(t, `func main() int { return (3 + 4) * 2 - 10 / 3 - 7 % 4; }`)
	wantI(t, v, 14-3-3)
}

func TestBitOps(t *testing.T) {
	v, _ := run(t, `func main() int { return (12 & 10) | (1 << 4) ^ (256 >> 4); }`)
	wantI(t, v, (12&10)|(1<<4)^(256>>4))
}

func TestUnary(t *testing.T) {
	v, _ := run(t, `func main() int { return -5 + !0 + !7; }`)
	wantI(t, v, -4)
}

func TestComparisonsAndShortCircuit(t *testing.T) {
	v, _ := run(t, `
func boom() int { return 1 / 0; }
func main() int {
    int a = 3;
    if (a > 5 && boom() == 1) { return 1; }
    if (a < 5 || boom() == 1) { return 2; }
    return 3;
}`)
	wantI(t, v, 2)
}

func TestLoopsAndGlobals(t *testing.T) {
	v, prof := run(t, `
global int tab[5] = {1, 2, 3, 4, 5};
global int sum;
func main() int {
    int i;
    for (i = 0; i < 5; i = i + 1) { sum = sum + tab[i]; }
    return sum;
}`)
	wantI(t, v, 15)
	if prof.ObjBytes[0] != 40 {
		t.Errorf("tab bytes = %d, want 40", prof.ObjBytes[0])
	}
	// tab loaded 5 times, sum loaded 5 + stored 5 + final load.
	if prof.ObjAccess[0] != 5 {
		t.Errorf("tab accesses = %d, want 5", prof.ObjAccess[0])
	}
	if prof.ObjAccess[1] != 11 {
		t.Errorf("sum accesses = %d, want 11", prof.ObjAccess[1])
	}
}

func TestWhileBreakContinue(t *testing.T) {
	v, _ := run(t, `
func main() int {
    int i = 0;
    int s = 0;
    while (1) {
        i = i + 1;
        if (i > 10) { break; }
        if (i % 2 == 0) { continue; }
        s = s + i;
    }
    return s;
}`)
	wantI(t, v, 1+3+5+7+9)
}

func TestFloats(t *testing.T) {
	v, _ := run(t, `
global float acc;
func main() int {
    float x = 1.5;
    float y = 2.5;
    acc = x * y + 1.0;
    if (acc >= 4.7 && acc <= 4.8) { return (int)(acc * 10.0); }
    return -1;
}`)
	wantI(t, v, 47)
}

func TestCastRoundTrip(t *testing.T) {
	v, _ := run(t, `func main() int { return (int)((float)41 + 1.0); }`)
	wantI(t, v, 42)
}

func TestMallocAndPointers(t *testing.T) {
	v, prof := run(t, `
func fill(int *p, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) { p[i] = i * i; }
}
func main() int {
    int *a;
    a = malloc(80);
    fill(a, 10);
    return a[9] + *a;
}`)
	wantI(t, v, 81)
	// Heap site recorded 80 bytes.
	var heapBytes int64
	for id, b := range prof.ObjBytes {
		if id >= 0 && b == 80 {
			heapBytes = b
		}
	}
	if heapBytes != 80 {
		t.Errorf("heap bytes = %v", prof.ObjBytes)
	}
}

func TestPointerSwitchFigure4(t *testing.T) {
	// The paper's Figure 4 shape: a pointer conditionally refers to heap or
	// global data and is accessed afterwards.
	v, _ := run(t, `
global int value1;
global int value2;
func main() int {
    int *x;
    int *foo;
    x = malloc(16);
    x[0] = 7;
    value1 = 3;
    value2 = 4;
    if (value2 > 3) { foo = x; } else { foo = &value1; }
    return foo[0] + value2;
}`)
	wantI(t, v, 11)
}

func TestRecursion(t *testing.T) {
	v, _ := run(t, `
func fib(int n) int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() int { return fib(12); }`)
	wantI(t, v, 144)
}

func TestGlobalScalarInit(t *testing.T) {
	v, _ := run(t, `
global int seed = 12345;
func main() int { return seed; }`)
	wantI(t, v, 12345)
}

func TestBlockFreqProfile(t *testing.T) {
	mod, err := mclang.Compile(`
func main() int {
    int i;
    int s = 0;
    for (i = 0; i < 100; i = i + 1) { s = s + i; }
    return s;
}`, "t")
	if err != nil {
		t.Fatal(err)
	}
	in := New(mod, Options{})
	if _, err := in.RunMain(); err != nil {
		t.Fatal(err)
	}
	prof := in.Profile()
	f := mod.Func("main")
	// The loop body must have run exactly 100 times; cond 101.
	var got100, got101 bool
	for _, b := range f.Blocks {
		switch prof.Freq(b) {
		case 100:
			got100 = true
		case 101:
			got101 = true
		}
	}
	if !got100 || !got101 {
		freqs := map[int]int64{}
		for _, b := range f.Blocks {
			freqs[b.ID] = prof.Freq(b)
		}
		t.Errorf("block frequencies missing 100/101: %v", freqs)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`func main() int { return 1 / 0; }`, "division by zero"},
		{`func main() int { return 1 % 0; }`, "remainder"},
		{`global int g[2]; func main() int { return g[5]; }`, "out-of-bounds"},
		{`func main() int { int *p; p = malloc(8); return p[-1]; }`, "out-of-bounds"},
		{`func main() int { int a = 1; int *p; p = (int*)malloc(16) + a; *p = 1; return *p; }`, ""},
	}
	for _, c := range cases {
		mod, err := mclang.Compile(c.src, "t")
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.src, err)
		}
		_, err = New(mod, Options{}).RunMain()
		if c.want == "" {
			if err != nil {
				t.Errorf("%q: unexpected error %v", c.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestStepBudget(t *testing.T) {
	mod, err := mclang.Compile(`func main() int { while (1) { } return 0; }`, "t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(mod, Options{MaxSteps: 1000}).RunMain()
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("error = %v, want step budget", err)
	}
}

func TestUnalignedAccess(t *testing.T) {
	m := ir.NewModule("u")
	g := m.AddObject(&ir.Object{Name: "g", Kind: ir.ObjGlobal, Size: 16})
	bd := ir.NewBuilder(m, "main", 0)
	a := bd.Addr(g)
	a2 := bd.Emit(ir.OpAdd, ir.Reg(a), ir.ConstInt(3))
	v := bd.Load(ir.Reg(a2))
	bd.Ret(ir.Reg(v))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	_, err := New(m, Options{}).RunMain()
	if err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Fatalf("error = %v, want unaligned", err)
	}
}

// Property: interpreting an arithmetic expression agrees with Go semantics.
func TestArithAgreesWithGoQuick(t *testing.T) {
	mod, err := mclang.Compile(`
func f(int a, int b) int {
    int d = b;
    if (d == 0) { d = 1; }
    return (a + b) * 3 - a / d + (a & b) + (a ^ 5);
}
func main() int { return f(1, 2); }`, "t")
	if err != nil {
		t.Fatal(err)
	}
	check := func(a, b int32) bool {
		in := New(mod, Options{})
		got, err := in.Run("f", profile.IntVal(int64(a)), profile.IntVal(int64(b)))
		if err != nil {
			return false
		}
		ai, bi := int64(a), int64(b)
		d := bi
		if d == 0 {
			d = 1
		}
		want := (ai+bi)*3 - ai/d + (ai & bi) + (ai ^ 5)
		return got.Kind == profile.ValInt && got.I == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: pointer arithmetic and loads/stores behave like a Go slice.
func TestMemoryAgreesWithGoQuick(t *testing.T) {
	mod, err := mclang.Compile(`
global int buf[32];
func set(int i, int v) { buf[i % 32] = v; }
func get(int i) int { return buf[i % 32]; }
func main() int { return 0; }`, "t")
	if err != nil {
		t.Fatal(err)
	}
	in := New(mod, Options{})
	ref := make([]int64, 32)
	check := func(i uint16, v int64) bool {
		idx := int64(i) % 32
		if _, err := in.Run("set", profile.IntVal(int64(i)), profile.IntVal(v)); err != nil {
			return false
		}
		ref[idx] = v
		got, err := in.Run("get", profile.IntVal(int64(i)))
		return err == nil && got.I == ref[idx]
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatComparisonsAndConversions(t *testing.T) {
	v, _ := run(t, `
func main() int {
    float a = 2.5;
    float b = -1.25;
    int s = 0;
    if (a > b) { s = s + 1; }
    if (a >= 2.5) { s = s + 2; }
    if (b < 0.0) { s = s + 4; }
    if (b <= -1.25) { s = s + 8; }
    if (a == 2.5) { s = s + 16; }
    if (a != b) { s = s + 32; }
    float c = -b;
    s = s + (int)(c * 4.0);
    s = s + (int)((float)3 / 2.0 * 2.0);
    return s;
}`)
	wantI(t, v, 1+2+4+8+16+32+5+3)
}

func TestValueStrings(t *testing.T) {
	if got := profile.IntVal(-3).String(); got != "-3" {
		t.Errorf("IntVal = %q", got)
	}
	if got := profile.FloatVal(2.5).String(); got != "2.5" {
		t.Errorf("FloatVal = %q", got)
	}
	if got := (profile.Value{Kind: profile.ValPtr}).String(); got != "nil" {
		t.Errorf("nil ptr = %q", got)
	}
	inst := &profile.Instance{Obj: &ir.Object{Name: "g"}}
	if got := (profile.Value{Kind: profile.ValPtr, Inst: inst, Off: 16}).String(); got != "&g+16" {
		t.Errorf("ptr = %q", got)
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	// Hand-built IR that feeds a float into an int op and vice versa.
	m := ir.NewModule("bad")
	bd := ir.NewBuilder(m, "main", 0)
	f := bd.Emit(ir.OpMov, ir.ConstFloat(1.5))
	bd.Emit(ir.OpAdd, ir.Reg(f), ir.ConstInt(1))
	bd.Ret()
	if _, err := New(m, Options{}).RunMain(); err == nil ||
		!strings.Contains(err.Error(), "expected int") {
		t.Errorf("int op on float: %v", err)
	}
	m2 := ir.NewModule("bad2")
	bd2 := ir.NewBuilder(m2, "main", 0)
	i := bd2.Emit(ir.OpMov, ir.ConstInt(2))
	bd2.Emit(ir.OpFMul, ir.Reg(i), ir.ConstFloat(1.5))
	bd2.Ret()
	if _, err := New(m2, Options{}).RunMain(); err == nil ||
		!strings.Contains(err.Error(), "expected float") {
		t.Errorf("float op on int: %v", err)
	}
}

func TestCallDepthGuard(t *testing.T) {
	mod, err := mclang.Compile(`
func rec(int n) int { return rec(n + 1); }
func main() int { return rec(0); }`, "t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(mod, Options{}).RunMain()
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("unbounded recursion not caught: %v", err)
	}
}
