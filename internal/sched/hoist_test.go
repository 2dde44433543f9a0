package sched

import (
	"testing"

	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/pointsto"
	"mcpart/internal/profile"
)

// loopMod compiles a two-level loop nest with a loop-invariant base value,
// a replicable induction variable, and a loop-carried accumulator.
func loopMod(t *testing.T) (*ir.Func, *profile.Profile) {
	t.Helper()
	mod, err := mclang.Compile(`
global int data[64];
func main() int {
    int base = 17;
    int acc = 0;
    int i;
    for (i = 0; i < 64; i = i + 1) {
        acc = acc + data[i & 63] * base;
    }
    return acc;
}`, "t")
	if err != nil {
		t.Fatal(err)
	}
	pointsto.Analyze(mod)
	in := interp.New(mod, interp.Options{})
	if _, err := in.RunMain(); err != nil {
		t.Fatal(err)
	}
	return mod.Func("main"), in.Profile()
}

// regOf finds the register a named pattern defines; here we locate the
// loop body block and classify its live-in registers.
func TestLoopCtxClassification(t *testing.T) {
	f, prof := loopMod(t)
	lc := NewLoopCtx(f)
	if len(lc.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(lc.Loops))
	}
	// Find the hot body block.
	var body *ir.Block
	for _, b := range f.Blocks {
		if prof.Freq(b) >= 64 && len(b.Ops) > 3 {
			body = b
		}
	}
	if body == nil {
		t.Fatal("no body block")
	}
	if lc.InnermostLoop(body) != 0 {
		t.Fatalf("body not in loop 0")
	}
	// Classify registers: the base (defined before the loop, never inside)
	// must be invariant; the induction variable must be induction; the
	// accumulator must be neither.
	defsOutside := map[ir.VReg]bool{}
	for _, b := range f.Blocks {
		inLoop := lc.InnermostLoop(b) >= 0
		for _, op := range b.Ops {
			if op.Dst != ir.NoReg && !inLoop {
				defsOutside[op.Dst] = true
			}
		}
	}
	var invariant, induction, carried int
	seen := map[ir.VReg]bool{}
	for _, op := range body.Ops {
		for _, a := range op.Args {
			if !a.IsReg() || seen[a.Reg] {
				continue
			}
			seen[a.Reg] = true
			switch {
			case lc.Invariant(body, a.Reg):
				invariant++
			case lc.Induction(body, a.Reg):
				induction++
			default:
				carried++
			}
		}
	}
	if invariant == 0 {
		t.Error("no invariant live-in found (base should be)")
	}
	if induction == 0 {
		t.Error("no induction register found (i should be)")
	}
	if carried == 0 {
		t.Error("no loop-carried register found (acc should be)")
	}
}

func TestEntryFreq(t *testing.T) {
	f, prof := loopMod(t)
	lc := NewLoopCtx(f)
	// The single loop is entered exactly once.
	if got := lc.EntryFreq(0, prof.Freq); got != 1 {
		t.Errorf("EntryFreq = %d, want 1", got)
	}
}

func TestHoistedMovesChargedPerEntry(t *testing.T) {
	f, prof := loopMod(t)
	cfg := machine.Paper2Cluster(5)
	// Split the body ops across clusters so invariant live-ins would be
	// needed remotely: put everything on cluster 1 except the pre-loop code.
	asg := make([]int, f.NOps)
	lc := NewLoopCtx(f)
	for _, b := range f.Blocks {
		if lc.InnermostLoop(b) >= 0 {
			for _, op := range b.Ops {
				asg[op.ID] = 1
			}
		}
	}
	_, hoisted := MaterializeFunc(f, asg, lc, cfg, prof.Freq)
	if len(hoisted) == 0 {
		t.Fatal("expected hoisted loop-entry moves for invariant/induction live-ins")
	}
	// Every hoisted move names the loop and a register with a cross
	// destination.
	for _, h := range hoisted {
		if h.Loop != 0 || h.To != 1 {
			t.Errorf("unexpected hoisted move %+v", h)
		}
	}
	// FuncCycles counts them once per entry (freq of preheader = 1),
	// not once per iteration: moves must be far below iteration count.
	cyc, moves := NewScratch().FuncCycles(NewBlockCache(f, lc, cfg), asg, prof)
	if cyc <= 0 {
		t.Fatal("no cycles")
	}
	if moves > 32 { // 64 iterations; per-iteration charging would be >= 64
		t.Errorf("hoisted moves appear charged per iteration: %d", moves)
	}
}

func TestSortHoistedDeterministic(t *testing.T) {
	hs := []HoistedMove{{1, 5, 0}, {0, 2, 1}, {0, 2, 0}, {0, 1, 1}}
	SortHoisted(hs)
	want := []HoistedMove{{0, 1, 1}, {0, 2, 0}, {0, 2, 1}, {1, 5, 0}}
	for i := range want {
		if hs[i] != want[i] {
			t.Fatalf("sorted = %v", hs)
		}
	}
}
