package ir_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/ir"
	"mcpart/internal/mclang"
	"mcpart/internal/opt"
	"mcpart/internal/progen"
)

// printReference is the fmt-based rendering Print is pinned to: disk-cache
// keys hash these bytes, so any drift would orphan every stored artifact.
func printReference(m *ir.Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	for _, o := range m.Objects {
		fmt.Fprintf(&sb, "object #%d %s %s %d", o.ID, o.Kind, o.Name, o.Size)
		if o.IsFloat {
			sb.WriteString(" float")
		}
		if len(o.Init) > 0 || len(o.FloatInit) > 0 {
			sb.WriteString(" = {")
			if o.IsFloat {
				for i, v := range o.FloatInit {
					if i > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "%g", v)
				}
			} else {
				for i, v := range o.Init {
					if i > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "%d", v)
				}
			}
			sb.WriteString("}")
		}
		sb.WriteString("\n")
	}
	for _, f := range m.Funcs {
		fmt.Fprintf(&sb, "func %s(%d params, %d regs)\n", f.Name, f.NParams, f.NRegs)
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "b%d:", b.ID)
			if len(b.Preds) > 0 {
				ids := make([]int, len(b.Preds))
				for i, p := range b.Preds {
					ids[i] = p.ID
				}
				sort.Ints(ids)
				sb.WriteString("  ; preds")
				for _, id := range ids {
					fmt.Fprintf(&sb, " b%d", id)
				}
			}
			sb.WriteString("\n")
			for _, op := range b.Ops {
				fmt.Fprintf(&sb, "  %s\n", opReference(op))
			}
		}
	}
	return sb.String()
}

func opReference(op *ir.Op) string {
	s := ""
	if op.Dst != ir.NoReg {
		s = fmt.Sprintf("v%d = ", op.Dst)
	}
	if op.Opcode < 0 || op.Opcode > ir.OpMove {
		s += fmt.Sprintf("opcode(%d)", int(op.Opcode))
	} else {
		s += op.Opcode.String()
	}
	switch op.Opcode {
	case ir.OpAddr:
		s += fmt.Sprintf(" @%d", op.Obj.ID)
	case ir.OpMalloc:
		s += fmt.Sprintf(" @%d,", op.MallocSite.ID)
	case ir.OpCall:
		s += " " + op.Callee
		if len(op.Args) > 0 {
			s += ","
		}
	}
	if op.Opcode != ir.OpAddr {
		for i, a := range op.Args {
			if i == 0 {
				s += " "
			} else {
				s += ", "
			}
			switch a.Kind {
			case ir.OperReg:
				s += fmt.Sprintf("v%d", a.Reg)
			case ir.OperInt:
				s += fmt.Sprintf("%d", a.Int)
			case ir.OperFloat:
				f := fmt.Sprintf("%g", a.Float)
				if !strings.ContainsAny(f, ".eEnI") {
					f += ".0"
				}
				s += f
			default:
				s += "?"
			}
		}
	}
	if op.Opcode == ir.OpBr && op.Block != nil && len(op.Block.Succs) > 0 {
		s += fmt.Sprintf(" b%d", op.Block.Succs[0].ID)
	}
	if op.Opcode == ir.OpBrCond && op.Block != nil && len(op.Block.Succs) > 1 {
		s += fmt.Sprintf(", b%d, b%d", op.Block.Succs[0].ID, op.Block.Succs[1].ID)
	}
	return s
}

// TestPrintMatchesReference pins Print and the streamed WriteModule to
// the fmt-based reference rendering, byte for byte, on every bundled
// program and a range of generated ones (front end only and optimized),
// and on a hand-built module with the float immediates and initializers
// whose formatting is easiest to get wrong.
func TestPrintMatchesReference(t *testing.T) {
	var mods []*ir.Module
	add := func(name, src string) {
		for _, optimize := range []bool{false, true} {
			m, err := mclang.CompileUnrolled(src, name, 4)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if optimize {
				opt.Optimize(m)
			}
			mods = append(mods, m)
		}
	}
	for _, b := range bench.All() {
		add(b.Name, b.Source)
	}
	for seed := int64(0); seed < 60; seed++ {
		add(fmt.Sprint("seed", seed), progen.Generate(seed, progen.Options{}))
	}

	m := ir.NewModule("floats")
	obj := m.AddObject(&ir.Object{Name: "tbl", Kind: ir.ObjGlobal, Size: 40, IsFloat: true,
		FloatInit: []float64{1, -0.5, 1e21, 1e-7, math.Copysign(0, -1)}})
	m.AddObject(&ir.Object{Name: "ints", Kind: ir.ObjGlobal, Size: 16, Init: []int64{-3, math.MaxInt64}})
	bd := ir.NewBuilder(m, "main", 1)
	a := bd.Addr(obj)
	x := bd.Emit(ir.OpFAdd, ir.ConstFloat(3), ir.ConstFloat(math.Inf(1)))
	y := bd.Emit(ir.OpFMul, ir.Reg(x), ir.ConstFloat(math.NaN()))
	z := bd.Emit(ir.OpFSub, ir.Reg(y), ir.ConstFloat(math.Copysign(0, -1)))
	bd.Store(ir.Reg(a), ir.ConstFloat(-math.Inf(1)))
	bd.Store(ir.Reg(a), ir.ConstFloat(2.5e-300))
	bd.Ret(ir.Reg(z))
	mods = append(mods, m)

	for _, m := range mods {
		want := printReference(m)
		if got := ir.Print(m); got != want {
			t.Fatalf("%s: Print differs from the reference rendering:\n%s\nwant:\n%s", m.Name, got, want)
		}
		h := sha256.New()
		if err := ir.WriteModule(h, m); err != nil {
			t.Fatal(err)
		}
		if got, want := h.Sum(nil), sha256.Sum256([]byte(want)); string(got) != string(want[:]) {
			t.Fatalf("%s: streamed hash differs from the hash of the reference rendering", m.Name)
		}
	}
}
