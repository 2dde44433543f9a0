// Package opt implements the classical scalar optimizations a VLIW
// toolchain (like the paper's Trimaran) applies before partitioning:
// block-local copy propagation, constant folding, common-subexpression
// elimination, and global dead-code elimination. The passes run to a
// fixpoint and renumber operation IDs densely afterwards, so downstream
// analyses (points-to, profiling, partitioning) see a clean module.
//
// All passes preserve the interpreter semantics exactly; the test suite
// checks every bundled benchmark's checksum with and without optimization.
package opt

import (
	"fmt"

	"mcpart/internal/ir"
)

// Stats reports what the optimizer did.
type Stats struct {
	Folded     int // ops replaced by constants
	Propagated int // copy uses rewritten
	CSEd       int // redundant ops removed by value numbering
	Eliminated int // dead ops removed
	Rounds     int
}

func (s Stats) String() string {
	return fmt.Sprintf("folded=%d propagated=%d cse=%d dce=%d rounds=%d",
		s.Folded, s.Propagated, s.CSEd, s.Eliminated, s.Rounds)
}

// Optimize runs the pass pipeline over every function of m until nothing
// changes (bounded at 8 rounds) and returns aggregate statistics.
func Optimize(m *ir.Module) Stats {
	var dc deadCode
	var cs cse
	return optimize(m, dc.run, cs.block)
}

// optimize is Optimize with the dead-code and value-numbering passes as
// parameters, so tests can run the pipeline over reference passes.
func optimize(m *ir.Module, dce func(*ir.Func) int, cse func(*ir.Func, *ir.Block) int) Stats {
	var total Stats
	for _, f := range m.Funcs {
		s := optimizeFunc(f, dce, cse)
		total.Folded += s.Folded
		total.Propagated += s.Propagated
		total.CSEd += s.CSEd
		total.Eliminated += s.Eliminated
		if s.Rounds > total.Rounds {
			total.Rounds = s.Rounds
		}
	}
	return total
}

func optimizeFunc(f *ir.Func, dce func(*ir.Func) int, cse func(*ir.Func, *ir.Block) int) Stats {
	var total Stats
	for round := 0; round < 8; round++ {
		var s Stats
		for _, b := range f.Blocks {
			s.Propagated += copyPropBlock(f, b)
			s.Folded += foldBlock(b)
			s.CSEd += cse(f, b)
		}
		s.Eliminated = dce(f)
		total.Folded += s.Folded
		total.Propagated += s.Propagated
		total.CSEd += s.CSEd
		total.Eliminated += s.Eliminated
		total.Rounds = round + 1
		if s.Folded+s.Propagated+s.CSEd+s.Eliminated == 0 {
			break
		}
	}
	renumber(f)
	return total
}

// copyPropBlock rewrites uses of registers defined by `mov` (and of
// registers holding constants) within a block. The mapping for a register
// dies when either side is redefined.
func copyPropBlock(f *ir.Func, b *ir.Block) int {
	changed := 0
	// value[r] = operand r currently equals, if any.
	value := map[ir.VReg]ir.Operand{}
	// holders[r] = registers whose value mapping mentions r.
	holders := map[ir.VReg][]ir.VReg{}
	kill := func(r ir.VReg) {
		delete(value, r)
		for _, h := range holders[r] {
			if v, ok := value[h]; ok && v.Kind == ir.OperReg && v.Reg == r {
				delete(value, h)
			}
		}
		delete(holders, r)
	}
	for _, op := range b.Ops {
		for i, a := range op.Args {
			if a.Kind != ir.OperReg {
				continue
			}
			if v, ok := value[a.Reg]; ok {
				op.Args[i] = v
				changed++
			}
		}
		if op.Dst == ir.NoReg {
			continue
		}
		kill(op.Dst)
		if op.Opcode == ir.OpMov {
			src := op.Args[0]
			if src.Kind != ir.OperReg || src.Reg != op.Dst {
				value[op.Dst] = src
				if src.Kind == ir.OperReg {
					holders[src.Reg] = append(holders[src.Reg], op.Dst)
				}
			}
		}
	}
	return changed
}

// foldBlock replaces all-constant pure operations with movs of their
// results. Folding never introduces behavior the interpreter would trap on
// (division by zero is left alone).
func foldBlock(b *ir.Block) int {
	changed := 0
	for _, op := range b.Ops {
		if op.Dst == ir.NoReg || op.Opcode.IsMem() || op.Opcode.IsBranch() ||
			op.Opcode == ir.OpMov || op.Opcode == ir.OpAddr {
			continue
		}
		v, ok := fold(op)
		if !ok {
			continue
		}
		op.Opcode = ir.OpMov
		op.Args = []ir.Operand{v}
		changed++
	}
	return changed
}

// fold evaluates a pure op over constant operands.
func fold(op *ir.Op) (ir.Operand, bool) {
	args := op.Args
	allInt := true
	allFloat := true
	for _, a := range args {
		if a.Kind != ir.OperInt {
			allInt = false
		}
		if a.Kind != ir.OperFloat {
			allFloat = false
		}
	}
	ci := func(v int64) (ir.Operand, bool) { return ir.ConstInt(v), true }
	cf := func(v float64) (ir.Operand, bool) { return ir.ConstFloat(v), true }
	cb := func(v bool) (ir.Operand, bool) {
		if v {
			return ir.ConstInt(1), true
		}
		return ir.ConstInt(0), true
	}
	if allInt {
		switch len(args) {
		case 1:
			x := args[0].Int
			switch op.Opcode {
			case ir.OpNeg:
				return ci(-x)
			case ir.OpNot:
				return ci(^x)
			case ir.OpIToF:
				return cf(float64(x))
			}
		case 2:
			x, y := args[0].Int, args[1].Int
			switch op.Opcode {
			case ir.OpAdd:
				return ci(x + y)
			case ir.OpSub:
				return ci(x - y)
			case ir.OpMul:
				return ci(x * y)
			case ir.OpDiv:
				if y != 0 {
					return ci(x / y)
				}
			case ir.OpRem:
				if y != 0 {
					return ci(x % y)
				}
			case ir.OpAnd:
				return ci(x & y)
			case ir.OpOr:
				return ci(x | y)
			case ir.OpXor:
				return ci(x ^ y)
			case ir.OpShl:
				return ci(x << (uint64(y) & 63))
			case ir.OpShr:
				return ci(x >> (uint64(y) & 63))
			case ir.OpCmpEQ:
				return cb(x == y)
			case ir.OpCmpNE:
				return cb(x != y)
			case ir.OpCmpLT:
				return cb(x < y)
			case ir.OpCmpLE:
				return cb(x <= y)
			case ir.OpCmpGT:
				return cb(x > y)
			case ir.OpCmpGE:
				return cb(x >= y)
			}
		}
		return ir.Operand{}, false
	}
	if allFloat {
		switch len(args) {
		case 1:
			x := args[0].Float
			switch op.Opcode {
			case ir.OpFNeg:
				return cf(-x)
			case ir.OpFToI:
				return ci(int64(x))
			}
		case 2:
			x, y := args[0].Float, args[1].Float
			switch op.Opcode {
			case ir.OpFAdd:
				return cf(x + y)
			case ir.OpFSub:
				return cf(x - y)
			case ir.OpFMul:
				return cf(x * y)
			case ir.OpFDiv:
				return cf(x / y)
			case ir.OpFCmpEQ:
				return cb(x == y)
			case ir.OpFCmpNE:
				return cb(x != y)
			case ir.OpFCmpLT:
				return cb(x < y)
			case ir.OpFCmpLE:
				return cb(x <= y)
			case ir.OpFCmpGT:
				return cb(x > y)
			case ir.OpFCmpGE:
				return cb(x >= y)
			}
		}
	}
	return ir.Operand{}, false
}

// cse is the block-local value-numbering pass (see block) and its working
// memory, reused by every block, function and round of one Optimize call.
type cse struct {
	avail map[cseKey]cseVal
	ver   []int // by register: definitions seen so far
	blk   int   // stamp of the block being numbered
}

// cseKey is one pure computation: opcode, operands and, for loads, the
// object and the memory epoch (stores, calls and mallocs start a new one).
type cseKey struct {
	opcode ir.Opcode
	nargs  int // a zero Operand equals Reg(0); arity disambiguates
	a0, a1 ir.Operand
	obj    *ir.Object
	epoch  int
}

// cseVal is the register holding a key's value, with the definition
// counts (cse.ver) of that register and of the key's register operands
// when it was recorded, and the block that recorded it. The entry is
// available while the block and all three counts are current: a
// redefinition of any of the registers retires it.
type cseVal struct {
	res          ir.VReg
	vres, v0, v1 int
	blk          int
}

// block performs block-local value numbering on b, a block of f: a pure op
// identical to an earlier one (same opcode, operands, and — for loads — no
// intervening possibly-aliasing store) becomes a mov from the earlier
// result. It returns the number of ops rewritten.
func (cs *cse) block(f *ir.Func, b *ir.Block) int {
	if cs.avail == nil {
		cs.avail = map[cseKey]cseVal{}
	}
	if len(cs.ver) < f.NRegs {
		cs.ver = make([]int, f.NRegs)
	}
	cs.blk++
	ver := cs.ver
	// regVer is the definition count of o's register, or 0 when the key
	// does not read o as a register (a zero Operand past the arity reads
	// as Reg(0), matching the key's equality).
	regVer := func(o ir.Operand, used bool) int {
		if used && o.Kind == ir.OperReg {
			return ver[o.Reg]
		}
		return 0
	}
	changed := 0
	epoch := 0
	for _, op := range b.Ops {
		if op.Opcode == ir.OpStore || op.Opcode == ir.OpCall || op.Opcode == ir.OpMalloc {
			epoch++
		}
		if op.Dst == ir.NoReg {
			continue
		}
		k, ok := cseKeyOf(op, epoch)
		if ok && op.Opcode != ir.OpMov {
			if v, hit := cs.avail[k]; hit && v.blk == cs.blk && v.res != op.Dst &&
				v.vres == ver[v.res] && v.v0 == regVer(k.a0, k.nargs >= 1) && v.v1 == regVer(k.a1, k.nargs >= 2) {
				op.Opcode = ir.OpMov
				op.Args = []ir.Operand{ir.Reg(v.res)}
				op.Obj = nil
				ver[op.Dst]++
				changed++
				continue
			}
		}
		// The definition retires every entry mentioning the register
		// (operand or result).
		ver[op.Dst]++
		if ok && op.Opcode != ir.OpMov {
			cs.avail[k] = cseVal{res: op.Dst, vres: ver[op.Dst],
				v0: regVer(k.a0, k.nargs >= 1), v1: regVer(k.a1, k.nargs >= 2), blk: cs.blk}
		}
	}
	return changed
}

// cseKeyOf returns op's value-numbering key at memory epoch epoch, and
// whether op is a pure computation value numbering may reuse.
func cseKeyOf(op *ir.Op, epoch int) (cseKey, bool) {
	k := cseKey{opcode: op.Opcode, obj: op.Obj, nargs: len(op.Args)}
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

// deadCode holds the dead-code pass's tables, reused by every function
// and round of one Optimize call. Ops are indexed by their position in
// block order, reads by their position among all ops' args.
type deadCode struct {
	ops  []*ir.Op
	base []int // op -> index of its first arg in link
	link []int // arg -> the in-block def it reads, or -1
	uses []int // op -> in-block reads of its def
	next []int // op -> the earlier def of its register, or -1
	work []int
	head []int // register -> its last def in block order, or -1
	// exposed counts each register's upward-exposed reads.
	exposed []int
	lastDef []int // register -> its latest def in the current block
	defBlk  []int // register -> 1 + index of lastDef's block
	dead    []bool
}

// zeroed returns s with length n and every element zero, reusing its
// array when that is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// run removes pure operations whose results are never used and returns
// the number removed. It links a read to defs as cfg.ComputeDefUse does:
// a read of r after a def of r in its block reads the nearest such def;
// an upward-exposed read makes r live-in there and so reads every def of
// r. A def therefore stays live while a later op of its block reads it
// before r is redefined, or while any op reads r upward-exposed. Removing
// a dead op never adds a link, so counting those reads once and
// decrementing them as a worklist removes ops reaches the fixpoint that
// re-analysing after every sweep would.
func (dc *deadCode) run(f *ir.Func) int {
	n, nargs := 0, 0
	for _, b := range f.Blocks {
		n += len(b.Ops)
		for _, op := range b.Ops {
			nargs += len(op.Args)
		}
	}
	ops, base, link := zeroed(dc.ops, n), zeroed(dc.base, n), zeroed(dc.link, nargs)
	uses, next, work := zeroed(dc.uses, n), zeroed(dc.next, n), zeroed(dc.work, n)
	head, exposed := zeroed(dc.head, f.NRegs), zeroed(dc.exposed, f.NRegs)
	lastDef, defBlk := zeroed(dc.lastDef, f.NRegs), zeroed(dc.defBlk, f.NRegs)
	dead := zeroed(dc.dead, n)
	*dc = deadCode{ops, base, link, uses, next, work, head, exposed, lastDef, defBlk, dead}
	work = work[:0] // never outgrows n

	for r := range head {
		head[r] = -1
	}
	p, k := 0, 0
	for bi, b := range f.Blocks {
		for _, op := range b.Ops {
			ops[p], base[p] = op, k
			for _, a := range op.Args {
				link[k] = -1
				if a.IsReg() && defBlk[a.Reg] == bi+1 {
					link[k] = lastDef[a.Reg]
					uses[link[k]]++
				} else if a.IsReg() {
					exposed[a.Reg]++
				}
				k++
			}
			if op.Dst != ir.NoReg {
				lastDef[op.Dst], defBlk[op.Dst] = p, bi+1
				next[p], head[op.Dst] = head[op.Dst], p
			}
			p++
		}
	}

	push := func(p int) {
		op := ops[p]
		if dead[p] || uses[p] > 0 || op.Dst == ir.NoReg || exposed[op.Dst] > 0 {
			return
		}
		switch op.Opcode {
		case ir.OpStore, ir.OpBr, ir.OpBrCond, ir.OpRet, ir.OpCall, ir.OpMalloc:
			return // side effects (calls/mallocs kept even if unused)
		}
		dead[p] = true
		work = append(work, p)
	}
	for p := range ops {
		push(p)
	}
	removed := 0
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		removed++
		for i, a := range ops[p].Args {
			if !a.IsReg() {
				continue
			}
			if d := link[base[p]+i]; d >= 0 {
				if uses[d]--; uses[d] == 0 {
					push(d)
				}
			} else if exposed[a.Reg]--; exposed[a.Reg] == 0 {
				for d := head[a.Reg]; d >= 0; d = next[d] {
					push(d)
				}
			}
		}
	}
	if removed == 0 {
		return 0
	}
	p = 0
	for _, b := range f.Blocks {
		kept := b.Ops[:0]
		for _, op := range b.Ops {
			if !dead[p] {
				kept = append(kept, op)
			}
			p++
		}
		b.Ops = kept
	}
	renumber(f)
	return removed
}

// renumber reassigns dense op IDs after mutation.
func renumber(f *ir.Func) {
	id := 0
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			op.ID = id
			id++
		}
	}
	f.NOps = id
}
