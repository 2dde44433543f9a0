package sched

import (
	"reflect"
	"testing"

	"mcpart/internal/ir"
	"mcpart/internal/opt"
	"mcpart/internal/testprog"
)

// loopSetsRef is the reference loop classification: per loop, maps of the
// registers it defines and of its replicable induction registers.
func loopSetsRef(lc *LoopCtx) (defsIn, induction []map[ir.VReg]bool) {
	for _, l := range lc.Loops {
		defs := map[ir.VReg]bool{}
		simple := map[ir.VReg]bool{}
		for b := range l.Blocks {
			for _, op := range b.Ops {
				if op.Dst == ir.NoReg {
					continue
				}
				r := op.Dst
				isSimple := (op.Opcode == ir.OpAdd || op.Opcode == ir.OpSub) &&
					len(op.Args) == 2 &&
					op.Args[0].Kind == ir.OperReg && op.Args[0].Reg == r &&
					op.Args[1].Kind == ir.OperInt
				if defs[r] {
					simple[r] = simple[r] && isSimple
				} else {
					defs[r] = true
					simple[r] = isSimple
				}
			}
		}
		ind := map[ir.VReg]bool{}
		for r, ok := range simple {
			if ok {
				ind[r] = true
			}
		}
		defsIn, induction = append(defsIn, defs), append(induction, ind)
	}
	return defsIn, induction
}

// blockLiveInRef is the reference for one block's BlockLiveIns entry: the
// registers it reads before defining them, with maps of both sets.
func blockLiveInRef(b *ir.Block) []ir.VReg {
	defined := map[ir.VReg]bool{}
	seen := map[ir.VReg]bool{}
	var out []ir.VReg
	for _, op := range b.Ops {
		for _, a := range op.Args {
			if a.IsReg() && !defined[a.Reg] && !seen[a.Reg] {
				seen[a.Reg] = true
				out = append(out, a.Reg)
			}
		}
		if op.Dst != ir.NoReg {
			defined[op.Dst] = true
		}
	}
	return out
}

// TestLoopCtxAndLiveInsMatchReference pins the bitset loop classification
// and the stamped block live-ins to their map-based references: Invariant
// and Induction agree for every (block, register), and BlockLiveIns for
// every block, of every function of testprog's programs, unoptimized and
// optimized.
func TestLoopCtxAndLiveInsMatchReference(t *testing.T) {
	for _, f := range testprog.Funcs(t, func(m *ir.Module) { opt.Optimize(m) }) {
		liveIns := BlockLiveIns(f)
		for _, b := range f.Blocks {
			if got, want := liveIns[b.ID], blockLiveInRef(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s b%d: live-ins %v, reference %v", f.Name, b.ID, got, want)
			}
		}
		lc := NewLoopCtx(f)
		defsIn, induction := loopSetsRef(lc)
		for _, b := range f.Blocks {
			li := lc.InnermostLoop(b)
			for r := ir.VReg(0); int(r) < f.NRegs; r++ {
				wantInv, wantInd := false, false
				if li >= 0 {
					wantInv, wantInd = !defsIn[li][r], induction[li][r]
				}
				if got := lc.Invariant(b, r); got != wantInv {
					t.Fatalf("%s b%d v%d: Invariant %v, reference %v", f.Name, b.ID, r, got, wantInv)
				}
				if got := lc.Induction(b, r); got != wantInd {
					t.Fatalf("%s b%d v%d: Induction %v, reference %v", f.Name, b.ID, r, got, wantInd)
				}
			}
		}
	}
}
