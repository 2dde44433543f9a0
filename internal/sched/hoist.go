package sched

import (
	"sort"

	"mcpart/internal/cfg"
	"mcpart/internal/ir"
)

// LoopCtx caches the loop structure a function's scheduler needs to hoist
// intercluster copies of loop-invariant values: a value that is live into a
// loop and defined nowhere inside it is copied to a consuming cluster once
// per loop entry (in the preheader), not once per iteration — mirroring how
// clustered code generators replicate loop invariants and induction bases.
// LoopCtx depends only on the IR, not on any cluster assignment, so one
// instance serves every candidate partition of the function.
type LoopCtx struct {
	Loops  []*cfg.Loop
	loopOf []int // block ID -> index of innermost containing loop, or -1
	// defsIn and induction hold one register bitset per loop, words
	// uint64s each: the registers defined in the loop, and those whose
	// every in-loop definition is a simple constant-step update.
	defsIn, induction []uint64
	words             int
}

// NewLoopCtx analyzes f's loops.
func NewLoopCtx(f *ir.Func) *LoopCtx {
	lc := &LoopCtx{
		Loops:  cfg.Loops(f),
		loopOf: make([]int, len(f.Blocks)),
		words:  (f.NRegs + 63) / 64,
	}
	for i := range lc.loopOf {
		lc.loopOf[i] = -1
	}
	for li, l := range lc.Loops {
		for b := range l.Blocks {
			cur := lc.loopOf[b.ID]
			if cur == -1 || lc.Loops[cur].Depth < l.Depth {
				lc.loopOf[b.ID] = li
			}
		}
	}
	lc.defsIn = make([]uint64, len(lc.Loops)*lc.words)
	lc.induction = make([]uint64, len(lc.Loops)*lc.words)
	for li, l := range lc.Loops {
		defs := lc.defsIn[li*lc.words : (li+1)*lc.words]
		simple := lc.induction[li*lc.words : (li+1)*lc.words]
		for b := range l.Blocks {
			for _, op := range b.Ops {
				if op.Dst == ir.NoReg {
					continue
				}
				r := op.Dst
				w, bit := r>>6, uint64(1)<<(r&63)
				isSimple := (op.Opcode == ir.OpAdd || op.Opcode == ir.OpSub) &&
					len(op.Args) == 2 &&
					op.Args[0].Kind == ir.OperReg && op.Args[0].Reg == r &&
					op.Args[1].Kind == ir.OperInt
				if defs[w]&bit == 0 {
					defs[w] |= bit
					if isSimple {
						simple[w] |= bit
					}
				} else if !isSimple {
					simple[w] &^= bit
				}
			}
		}
	}
	return lc
}

// inLoop reports whether register r is in loop li's row of set (defsIn or
// induction).
func (lc *LoopCtx) inLoop(set []uint64, li int, r ir.VReg) bool {
	return set[li*lc.words+int(r>>6)]&(1<<(r&63)) != 0
}

// InnermostLoop returns the index (into Loops) of b's innermost containing
// loop, or -1.
func (lc *LoopCtx) InnermostLoop(b *ir.Block) int {
	if lc == nil {
		return -1
	}
	return lc.loopOf[b.ID]
}

// Invariant reports whether register r is loop-invariant with respect to
// block b's innermost loop (false when b is outside all loops).
func (lc *LoopCtx) Invariant(b *ir.Block, r ir.VReg) bool {
	if lc == nil {
		return false
	}
	li := lc.loopOf[b.ID]
	if li < 0 {
		return false
	}
	return !lc.inLoop(lc.defsIn, li, r)
}

// Induction reports whether r is a replicable induction register of block
// b's innermost loop: every in-loop definition of r is a simple
// constant-step update (r = r ± C). Clustered code generators replicate
// such registers per cluster (one local update each), so consumers on any
// cluster see them without per-iteration intercluster traffic; only the
// loop-entry seed copy crosses the network.
func (lc *LoopCtx) Induction(b *ir.Block, r ir.VReg) bool {
	if lc == nil {
		return false
	}
	li := lc.loopOf[b.ID]
	if li < 0 {
		return false
	}
	return lc.inLoop(lc.induction, li, r)
}

// FreeLiveIn reports whether a live-in register needs no per-iteration
// intercluster move in block b: it is loop-invariant (hoisted copy) or a
// replicable induction register (per-cluster copy). Both still cost one
// move per loop entry.
func (lc *LoopCtx) FreeLiveIn(b *ir.Block, r ir.VReg) bool {
	return lc.Invariant(b, r) || lc.Induction(b, r)
}

// EntryFreq returns how many times loop li is entered, given per-block
// execution frequencies: the total frequency of header predecessors outside
// the loop (at least 1 once the loop ran at all).
func (lc *LoopCtx) EntryFreq(li int, freq func(*ir.Block) int64) int64 {
	l := lc.Loops[li]
	var n int64
	for _, p := range l.Header.Preds {
		if !l.Blocks[p] {
			n += freq(p)
		}
	}
	if n == 0 && freq(l.Header) > 0 {
		n = 1
	}
	return n
}

// HoistedMove identifies one loop-entry intercluster copy: invariant
// register Reg delivered to cluster To for loop index Loop.
type HoistedMove struct {
	Loop int
	Reg  ir.VReg
	To   int
}

// SortHoisted orders hoisted moves deterministically.
func SortHoisted(hs []HoistedMove) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Loop != hs[j].Loop {
			return hs[i].Loop < hs[j].Loop
		}
		if hs[i].Reg != hs[j].Reg {
			return hs[i].Reg < hs[j].Reg
		}
		return hs[i].To < hs[j].To
	})
}
