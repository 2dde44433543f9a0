// Package pointsto implements the interprocedural points-to analysis the
// data partitioner depends on (the paper's §3.2 "prepartitioning analyses",
// standing in for the summary-based analysis of Nystrom et al.).
//
// The analysis is a flow-insensitive, context-insensitive Andersen-style
// inclusion analysis over the module's virtual registers and data objects.
// Each global variable and each static malloc call site is one abstract
// object. The result annotates every load, store, and malloc operation with
// the set of object IDs it may access (ir.Op.MayAccess).
//
// Pointer values flow only through mov, add, sub, load, store, call, and
// return; the interpreter enforces this invariant dynamically, so the
// analysis is sound for any program that executes without a type error.
package pointsto

import (
	"sort"

	"mcpart/internal/ir"
)

// BitSet is a fixed-capacity bit set over object IDs.
type BitSet []uint64

// NewBitSet returns an empty set with capacity for n elements.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Add inserts i, reporting whether the set changed.
func (s BitSet) Add(i int) bool {
	w, b := i/64, uint(i%64)
	if s[w]&(1<<b) != 0 {
		return false
	}
	s[w] |= 1 << b
	return true
}

// UnionWith adds all of t into s, reporting whether s changed.
func (s BitSet) UnionWith(t BitSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | t[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Elems returns the members in ascending order.
func (s BitSet) Elems() []int {
	var out []int
	for w, bits := range s {
		for bits != 0 {
			b := bits & (-bits)
			i := 0
			for b>>uint(i) != 1 {
				i++
			}
			out = append(out, w*64+i)
			bits &^= b
		}
	}
	return out
}

// Result is the outcome of the analysis.
type Result struct {
	// Regs[f][r] is the set of objects register r of function f may point
	// into.
	Regs map[*ir.Func][]BitSet
	// Contents[o] is the set of objects that pointers stored inside object
	// o may point into.
	Contents []BitSet
	// Returns[f] is the set of objects function f's return value may point
	// into.
	Returns map[*ir.Func]BitSet
}

// Analyze runs the analysis on m and annotates every memory operation's
// MayAccess field (sorted object IDs). It returns the full result for
// clients that need register-level information.
func Analyze(m *ir.Module) *Result {
	n := len(m.Objects)
	res := &Result{
		Regs:     make(map[*ir.Func][]BitSet, len(m.Funcs)),
		Contents: make([]BitSet, n),
		Returns:  make(map[*ir.Func]BitSet, len(m.Funcs)),
	}
	for i := range res.Contents {
		res.Contents[i] = NewBitSet(n)
	}
	for _, f := range m.Funcs {
		regs := make([]BitSet, f.NRegs)
		for i := range regs {
			regs[i] = NewBitSet(n)
		}
		res.Regs[f] = regs
		res.Returns[f] = NewBitSet(n)
	}

	// Iterate all constraints to a fixpoint. Program sizes here are small
	// (thousands of ops), so a simple whole-program sweep converges fast.
	for changed := true; changed; {
		changed = false
		for _, f := range m.Funcs {
			regs := res.Regs[f]
			for _, b := range f.Blocks {
				for _, op := range b.Ops {
					if sweepOp(m, res, regs, op) {
						changed = true
					}
				}
			}
		}
	}

	// Annotate memory ops.
	for _, f := range m.Funcs {
		regs := res.Regs[f]
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				switch op.Opcode {
				case ir.OpLoad, ir.OpStore:
					op.MayAccess = pointees(regs, op.Args[0])
				case ir.OpMalloc:
					op.MayAccess = []int{op.MallocSite.ID}
				}
			}
		}
	}
	return res
}

func pointees(regs []BitSet, a ir.Operand) []int {
	if a.Kind != ir.OperReg {
		return nil
	}
	out := regs[a.Reg].Elems()
	sort.Ints(out)
	return out
}

func sweepOp(m *ir.Module, res *Result, regs []BitSet, op *ir.Op) bool {
	changed := false
	switch op.Opcode {
	case ir.OpAddr:
		changed = regs[op.Dst].Add(op.Obj.ID)
	case ir.OpMalloc:
		changed = regs[op.Dst].Add(op.MallocSite.ID)
	case ir.OpMov, ir.OpAdd, ir.OpSub:
		for _, a := range op.Args {
			if a.IsReg() && regs[op.Dst].UnionWith(regs[a.Reg]) {
				changed = true
			}
		}
	case ir.OpLoad:
		if op.Args[0].IsReg() {
			for _, o := range regs[op.Args[0].Reg].Elems() {
				if regs[op.Dst].UnionWith(res.Contents[o]) {
					changed = true
				}
			}
		}
	case ir.OpStore:
		if op.Args[0].IsReg() && op.Args[1].IsReg() {
			for _, o := range regs[op.Args[0].Reg].Elems() {
				if res.Contents[o].UnionWith(regs[op.Args[1].Reg]) {
					changed = true
				}
			}
		}
	case ir.OpCall:
		callee := m.Func(op.Callee)
		calleeRegs := res.Regs[callee]
		for i, a := range op.Args {
			if a.IsReg() && calleeRegs[i].UnionWith(regs[a.Reg]) {
				changed = true
			}
		}
		if op.Dst != ir.NoReg && regs[op.Dst].UnionWith(res.Returns[callee]) {
			changed = true
		}
	case ir.OpRet:
		if len(op.Args) == 1 && op.Args[0].IsReg() {
			if res.Returns[op.Block.Func].UnionWith(regs[op.Args[0].Reg]) {
				changed = true
			}
		}
	}
	return changed
}
