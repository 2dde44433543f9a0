package pointsto

import (
	"reflect"
	"testing"
	"testing/quick"

	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/mclang"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := mclang.Compile(src, "t")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return mod
}

func objByName(m *ir.Module, name string) *ir.Object {
	for _, o := range m.Objects {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// accessSets returns, for each memory op, its MayAccess set keyed by a
// stable description.
func loadStoreOps(m *ir.Module) []*ir.Op {
	var ops []*ir.Op
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if op.Opcode == ir.OpLoad || op.Opcode == ir.OpStore {
					ops = append(ops, op)
				}
			}
		}
	}
	return ops
}

func TestDirectGlobalAccess(t *testing.T) {
	m := compile(t, `
global int a[4];
global int b[4];
func main() int { a[1] = 5; return b[2]; }`)
	Analyze(m)
	aID := objByName(m, "a").ID
	bID := objByName(m, "b").ID
	for _, op := range loadStoreOps(m) {
		if op.Opcode == ir.OpStore {
			if len(op.MayAccess) != 1 || op.MayAccess[0] != aID {
				t.Errorf("store MayAccess = %v, want [%d]", op.MayAccess, aID)
			}
		} else {
			if len(op.MayAccess) != 1 || op.MayAccess[0] != bID {
				t.Errorf("load MayAccess = %v, want [%d]", op.MayAccess, bID)
			}
		}
	}
}

func TestConditionalPointerFigure4(t *testing.T) {
	// The paper's Figure 4: foo may point to heap x or global value1, so the
	// final access must report both; accesses to value2 stay exact.
	m := compile(t, `
global int value1;
global int value2;
func main() int {
    int *x;
    int *foo;
    x = malloc(16);
    value2 = 2;
    if (value2 > 1) { foo = x; } else { foo = &value1; }
    return foo[0] + value2;
}`)
	Analyze(m)
	v1 := objByName(m, "value1").ID
	v2 := objByName(m, "value2").ID
	heap := objByName(m, "malloc@main:0").ID
	var fooLoad *ir.Op
	for _, op := range loadStoreOps(m) {
		if op.Opcode == ir.OpLoad && len(op.MayAccess) > 1 {
			fooLoad = op
		}
	}
	if fooLoad == nil {
		t.Fatal("no multi-object load found")
	}
	want := map[int]bool{v1: true, heap: true}
	if len(fooLoad.MayAccess) != 2 || !want[fooLoad.MayAccess[0]] || !want[fooLoad.MayAccess[1]] {
		t.Errorf("foo load MayAccess = %v, want {%d,%d}", fooLoad.MayAccess, v1, heap)
	}
	for _, op := range loadStoreOps(m) {
		if op == fooLoad {
			continue
		}
		for _, id := range op.MayAccess {
			if id == v2 && len(op.MayAccess) != 1 {
				t.Errorf("value2 access not exact: %v", op.MayAccess)
			}
		}
	}
}

func TestInterproceduralFlow(t *testing.T) {
	m := compile(t, `
global int g[8];
func write(int *p, int v) { p[0] = v; }
func main() int { write(g, 9); return g[0]; }`)
	Analyze(m)
	gID := objByName(m, "g").ID
	var store *ir.Op
	for _, op := range loadStoreOps(m) {
		if op.Opcode == ir.OpStore {
			store = op
		}
	}
	if store == nil {
		t.Fatal("no store")
	}
	if len(store.MayAccess) != 1 || store.MayAccess[0] != gID {
		t.Errorf("store in callee MayAccess = %v, want [%d]", store.MayAccess, gID)
	}
}

func TestReturnValueFlow(t *testing.T) {
	m := compile(t, `
func alloc() int* { return malloc(32); }
func main() int {
    int *p;
    p = alloc();
    p[0] = 1;
    return p[0];
}`)
	Analyze(m)
	heap := objByName(m, "malloc@alloc:0").ID
	for _, op := range loadStoreOps(m) {
		if len(op.MayAccess) != 1 || op.MayAccess[0] != heap {
			t.Errorf("op %s MayAccess = %v, want [%d]", op, op.MayAccess, heap)
		}
	}
}

func TestPointerStoredInMemory(t *testing.T) {
	// A pointer saved into a global "box" and loaded back must carry its
	// pointees through Contents.
	m := compile(t, `
global int box;
global int target[4];
func main() int {
    int *p;
    int *q;
    p = &target[0];
    box = (int)0;
    *(&box) = p[0];
    q = target;
    q[1] = 5;
    return q[1];
}`)
	Analyze(m)
	tgt := objByName(m, "target").ID
	found := false
	for _, op := range loadStoreOps(m) {
		for _, id := range op.MayAccess {
			if id == tgt {
				found = true
			}
		}
	}
	if !found {
		t.Error("no access to target found")
	}
}

func TestBitSetOps(t *testing.T) {
	s := NewBitSet(200)
	if len(s.Elems()) != 0 {
		t.Fatal("new set not empty")
	}
	if !s.Add(3) || s.Add(3) {
		t.Fatal("Add change-reporting wrong")
	}
	s.Add(64)
	s.Add(199)
	if got := s.Elems(); len(got) != 3 || got[0] != 3 || got[1] != 64 || got[2] != 199 {
		t.Fatalf("Elems = %v", got)
	}
	u := NewBitSet(200)
	u.Add(5)
	if !u.UnionWith(s) {
		t.Fatal("UnionWith reported no change")
	}
	if got := u.Elems(); !reflect.DeepEqual(got, []int{3, 5, 64, 199}) {
		t.Fatalf("union wrong: %v", got)
	}
	if u.UnionWith(s) {
		t.Fatal("idempotent union reported change")
	}
}

func TestBitSetQuick(t *testing.T) {
	// Property: Elems returns exactly the added elements, sorted.
	if err := quick.Check(func(raw []uint16) bool {
		s := NewBitSet(65536)
		ref := map[int]bool{}
		for _, r := range raw {
			s.Add(int(r))
			ref[int(r)] = true
		}
		got := s.Elems()
		if len(got) != len(ref) {
			return false
		}
		for i, e := range got {
			if !ref[e] {
				return false
			}
			if i > 0 && got[i-1] >= e {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// Soundness property: every object the interpreter actually touches at a
// memory op is in that op's MayAccess set.
func TestSoundnessAgainstInterpreter(t *testing.T) {
	srcs := []string{
		`
global int a[8];
global int b[8];
func pick(int c) int* { if (c > 0) { return a; } return b; }
func main() int {
    int i;
    int s = 0;
    for (i = 0; i < 8; i = i + 1) {
        int *p;
        p = pick(i % 2);
        p[i % 8] = i;
        s = s + p[i % 8];
    }
    return s;
}`,
		`
global int t1[4];
func main() int {
    int *h;
    int *p;
    h = malloc(32);
    if (t1[0] == 0) { p = h; } else { p = t1; }
    p[2] = 7;
    return p[2] + h[1];
}`,
		`
func id(int *p) int* { return p; }
func main() int {
    int *a;
    int *b;
    a = malloc(16);
    b = id(a);
    b[0] = 3;
    return b[0];
}`,
	}
	for i, src := range srcs {
		mod, err := mclang.Compile(src, "t")
		if err != nil {
			t.Fatalf("src %d: %v", i, err)
		}
		Analyze(mod)
		in := interp.New(mod, interp.Options{})
		if _, err := in.RunMain(); err != nil {
			t.Fatalf("src %d run: %v", i, err)
		}
		prof := in.Profile()
		for op, objs := range prof.OpObj {
			if !op.Opcode.IsMem() {
				continue
			}
			may := map[int]bool{}
			for _, id := range op.MayAccess {
				may[id] = true
			}
			for objID := range objs {
				if !may[objID] {
					t.Errorf("src %d: op %s touched object %d not in MayAccess %v",
						i, op, objID, op.MayAccess)
				}
			}
		}
	}
}
