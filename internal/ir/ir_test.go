package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildSimple constructs: func f(a) { if a < 10 goto then else els;
// then: r = a+1; ret r; els: ret a }
func buildSimple(t *testing.T) (*Module, *Func) {
	t.Helper()
	m := NewModule("simple")
	bd := NewBuilder(m, "f", 1)
	then := bd.NewBlock()
	els := bd.NewBlock()
	cond := bd.Emit(OpCmpLT, Reg(0), ConstInt(10))
	bd.BrCond(Reg(cond), then, els)
	bd.SetBlock(then)
	r := bd.Emit(OpAdd, Reg(0), ConstInt(1))
	bd.Ret(Reg(r))
	bd.SetBlock(els)
	bd.Ret(Reg(0))
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return m, m.Func("f")
}

func TestBuilderBasic(t *testing.T) {
	_, f := buildSimple(t)
	if len(f.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(f.Blocks))
	}
	if f.NParams != 1 || f.NRegs != 3 {
		t.Fatalf("NParams=%d NRegs=%d, want 1,3", f.NParams, f.NRegs)
	}
	entry := f.Entry()
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %d, want 2", len(entry.Succs))
	}
	if entry.Succs[0].ID != 1 || entry.Succs[1].ID != 2 {
		t.Fatalf("succ order wrong: %v %v", entry.Succs[0], entry.Succs[1])
	}
	for _, s := range entry.Succs {
		if len(s.Preds) != 1 || s.Preds[0] != entry {
			t.Fatalf("pred back-edge missing on b%d", s.ID)
		}
	}
}

func TestOpIDsDense(t *testing.T) {
	_, f := buildSimple(t)
	ops := f.OpsByID()
	if len(ops) != f.NOps {
		t.Fatalf("OpsByID length %d != NOps %d", len(ops), f.NOps)
	}
	for i, op := range ops {
		if op == nil {
			t.Fatalf("op id %d missing", i)
		}
		if op.ID != i {
			t.Fatalf("op id mismatch: slot %d holds id %d", i, op.ID)
		}
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("bad")
	bd := NewBuilder(m, "f", 0)
	bd.Emit(OpAdd, ConstInt(1), ConstInt(2))
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted block without terminator")
	}
}

func TestVerifyCatchesBadReg(t *testing.T) {
	m := NewModule("bad")
	bd := NewBuilder(m, "f", 0)
	bd.Ret()
	// Corrupt: use a register beyond NRegs.
	f := m.Func("f")
	f.Blocks[0].Ops = append([]*Op{{
		ID: f.NOps, Opcode: OpMov, Dst: NoReg + 1,
		Args: []Operand{Reg(99)}, Block: f.Blocks[0],
	}}, f.Blocks[0].Ops...)
	f.NOps++
	f.NRegs = 1
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted out-of-range register use")
	}
}

func TestVerifyCatchesUnknownCall(t *testing.T) {
	m := NewModule("bad")
	bd := NewBuilder(m, "f", 0)
	bd.Call("nosuch", false)
	bd.Ret()
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted call to unknown function")
	}
}

func TestVerifyCatchesArityMismatch(t *testing.T) {
	m := NewModule("bad")
	g := NewBuilder(m, "g", 2)
	g.Ret(ConstInt(0))
	bd := NewBuilder(m, "f", 0)
	bd.Call("g", false, ConstInt(1)) // g wants 2 args
	bd.Ret()
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted call arity mismatch")
	}
}

func TestEmitAfterTerminatorPanics(t *testing.T) {
	m := NewModule("p")
	bd := NewBuilder(m, "f", 0)
	bd.Ret()
	defer func() {
		if recover() == nil {
			t.Fatal("emit after terminator did not panic")
		}
	}()
	bd.Emit(OpAdd, ConstInt(1), ConstInt(2))
}

func TestObjectRegistration(t *testing.T) {
	m := NewModule("obj")
	a := m.AddObject(&Object{Name: "a", Kind: ObjGlobal, Size: 16})
	b := m.AddObject(&Object{Name: "b", Kind: ObjHeap})
	if a.ID != 0 || b.ID != 1 {
		t.Fatalf("object IDs = %d,%d, want 0,1", a.ID, b.ID)
	}
	if a.Words() != 2 {
		t.Fatalf("Words = %d, want 2", a.Words())
	}
	o := &Object{Size: 9}
	if o.Words() != 2 {
		t.Fatalf("Words(9 bytes) = %d, want 2", o.Words())
	}
}

func TestOpcodeClasses(t *testing.T) {
	cases := []struct {
		op                       Opcode
		mem, branch, term, float bool
	}{
		{OpAdd, false, false, false, false},
		{OpLoad, true, false, false, false},
		{OpStore, true, false, false, false},
		{OpMalloc, true, false, false, false},
		{OpBr, false, true, true, false},
		{OpBrCond, false, true, true, false},
		{OpCall, false, true, false, false},
		{OpRet, false, true, true, false},
		{OpFAdd, false, false, false, true},
		{OpIToF, false, false, false, true},
		{OpFCmpLT, false, false, false, true},
	}
	for _, c := range cases {
		if c.op.IsMem() != c.mem {
			t.Errorf("%s IsMem = %v", c.op, c.op.IsMem())
		}
		if c.op.IsBranch() != c.branch {
			t.Errorf("%s IsBranch = %v", c.op, c.op.IsBranch())
		}
		if c.op.IsTerminator() != c.term {
			t.Errorf("%s IsTerminator = %v", c.op, c.op.IsTerminator())
		}
		if c.op.IsFloat() != c.float {
			t.Errorf("%s IsFloat = %v", c.op, c.op.IsFloat())
		}
	}
}

func TestOpcodeStringsUniqueAndNamed(t *testing.T) {
	seen := make(map[string]Opcode)
	for o := OpAdd; o < numOpcodes; o++ {
		s := o.String()
		if s == "" || strings.HasPrefix(s, "opcode(") {
			t.Fatalf("opcode %d has no name", int(o))
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("opcodes %d and %d share name %q", prev, o, s)
		}
		seen[s] = o
	}
}

func TestOperandString(t *testing.T) {
	if got := Reg(3).String(); got != "v3" {
		t.Errorf("Reg(3) = %q", got)
	}
	if got := ConstInt(-7).String(); got != "-7" {
		t.Errorf("ConstInt(-7) = %q", got)
	}
	if got := ConstFloat(2.5).String(); got != "2.5" {
		t.Errorf("ConstFloat(2.5) = %q", got)
	}
}

func TestPrintContainsStructure(t *testing.T) {
	m, _ := buildSimple(t)
	m.AddObject(&Object{Name: "tbl", Kind: ObjGlobal, Size: 24, Init: []int64{1, 2, 3}})
	out := Print(m)
	for _, want := range []string{"module simple", "func f", "b0:", "brcond", "ret", "object #0 global tbl 24"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

// Property: operand constructors round-trip their payloads.
func TestOperandRoundTripQuick(t *testing.T) {
	if err := quick.Check(func(i int64, f float64, r uint8) bool {
		oi := ConstInt(i)
		of := ConstFloat(f)
		or := Reg(VReg(r))
		return oi.Int == i && !oi.IsReg() &&
			of.Float == f || f != f && // NaN compares unequal; accept
			or.Reg == VReg(r) && or.IsReg()
	}, nil); err != nil {
		t.Error(err)
	}
}
