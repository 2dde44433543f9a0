// Package bytecode compiles IR modules to a compact flat bytecode and
// executes it in a table-driven dispatch-loop VM. It is the fast profiler
// behind eval.Prepare: the VM accumulates exactly the same profile.Profile
// (block frequencies, per-op object access counts, allocation sizes, step
// count) as the tree-walking interpreter, byte for byte, at roughly an
// order of magnitude higher throughput (BENCH_interp.json).
//
// Why it is fast where internal/interp is slow: the tree walker allocates
// an argument slice per executed operation, decodes operand kinds on every
// use, and bumps three pointer-keyed maps per memory access. The VM pays
// all of that once, at compile time:
//
//   - every instruction is one fixed-size struct in a flat []instr, so
//     dispatch is an array index plus one switch on a dense opcode;
//   - constants are interned into a per-function pool that is materialized
//     into the high end of the frame's register window, so every operand —
//     register or immediate — is a plain register index at run time;
//   - jumps are resolved to instruction offsets at compile time (branch
//     instructions also carry the target block index so block frequencies
//     stay a dense-array increment);
//   - memory operations carry interned (memory-op, object) indices, so
//     profiling a load is two int64 increments into flat arrays, with the
//     map-keyed profile.Profile rebuilt once at the end.
//
// The tree-walking interpreter remains the differential-testing oracle:
// the VM must produce the same checksum and a DeepEqual-identical Profile
// on every program (pinned across the benchmark suite and fuzzed by
// FuzzVM; see DESIGN.md §11).
package bytecode

import (
	"fmt"
	"math"

	"mcpart/internal/ir"
	"mcpart/internal/profile"
)

// instr is one bytecode instruction. All operand fields are register
// indices into the frame window (IR virtual registers first, then the
// materialized constant pool), except where the opcode documents
// otherwise (jump offsets, pool offsets, interned indices). The layout is
// uniform so the dispatch loop never decodes variable-length operands.
type instr struct {
	op  uint8 // dense opcode (the bcXxx table below)
	dst int32 // destination register, or -1
	a   int32 // first operand (see opcode)
	b   int32 // second operand (see opcode)
	c   int32 // third operand (see opcode)
	aux int32 // interned index: block, object, callee, or memory op
}

// The dense opcode table. Values are contiguous so the dispatch switch
// compiles to a jump table. Integer and float groups mirror the IR
// opcodes one to one; the control and memory groups re-encode their IR
// counterparts with resolved offsets and interned indices.
const (
	bcInvalid uint8 = iota

	// dst = r[a] op r[b]; runtime kind checks mirror internal/interp
	// (add/sub/cmpeq/cmpne accept the pointer forms).
	bcAdd
	bcSub
	bcMul
	bcDiv
	bcRem
	bcAnd
	bcOr
	bcXor
	bcShl
	bcShr
	bcCmpEQ
	bcCmpNE
	bcCmpLT
	bcCmpLE
	bcCmpGT
	bcCmpGE

	// dst = op r[a].
	bcNeg
	bcNot
	bcIToF
	bcFToI
	bcMov

	// dst = r[a] fop r[b].
	bcFAdd
	bcFSub
	bcFMul
	bcFDiv
	bcFCmpEQ
	bcFCmpNE
	bcFCmpLT
	bcFCmpLE
	bcFCmpGT
	bcFCmpGE

	// dst = -r[a].
	bcFNeg

	// Memory. aux = interned memory-op index (profile row); bcAddr and
	// bcMalloc carry the object ID in c.
	bcAddr   // dst = &globals[c]
	bcMalloc // dst = fresh instance of r[a] bytes at heap site c
	bcLoad   // dst = *r[a]
	bcStore  // *r[a] = r[b]

	// Control. Jump targets are absolute instruction offsets resolved at
	// compile time; the extra fields carry the target block indices so
	// the VM can bump block frequencies without a side table.
	bcBr     // pc = a; blockFreq[aux]++
	bcBrCond // if r[a]!=0 { pc = b; blockFreq[dst]++ } else { pc = c; blockFreq[aux]++ }
	bcCall   // dst = call fns[aux](argPool[a : a+b]...)
	bcRet    // return r[a] (a == -1: return int 0)
)

// fnCode is one function compiled to bytecode.
type fnCode struct {
	name    string
	nParams int
	nRegs   int             // IR virtual registers (window prefix)
	frame   int             // window size: nRegs + len(consts)
	consts  []profile.Value // materialized into regs[nRegs:] at frame setup
	code    []instr
	argPool []int32     // flattened call-argument register lists
	blocks  []*ir.Block // dense block index -> block (profile reconstruction)
}

// Program is a module compiled to bytecode, ready for any number of VM
// runs.
type Program struct {
	mod    *ir.Module
	fns    []*fnCode
	fnIdx  map[string]int32
	memOps []*ir.Op // interned memory ops across the module (profile rows)
}

// Module returns the IR module this program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

// Func returns the compiled index of the named function, or -1.
func (p *Program) funcIndex(name string) int32 {
	if i, ok := p.fnIdx[name]; ok {
		return i
	}
	return -1
}

// binaryOps maps the IR's two-operand opcodes onto bytecode opcodes.
var binaryOps = map[ir.Opcode]uint8{
	ir.OpAdd: bcAdd, ir.OpSub: bcSub, ir.OpMul: bcMul, ir.OpDiv: bcDiv,
	ir.OpRem: bcRem, ir.OpAnd: bcAnd, ir.OpOr: bcOr, ir.OpXor: bcXor,
	ir.OpShl: bcShl, ir.OpShr: bcShr,
	ir.OpCmpEQ: bcCmpEQ, ir.OpCmpNE: bcCmpNE, ir.OpCmpLT: bcCmpLT,
	ir.OpCmpLE: bcCmpLE, ir.OpCmpGT: bcCmpGT, ir.OpCmpGE: bcCmpGE,
	ir.OpFAdd: bcFAdd, ir.OpFSub: bcFSub, ir.OpFMul: bcFMul, ir.OpFDiv: bcFDiv,
	ir.OpFCmpEQ: bcFCmpEQ, ir.OpFCmpNE: bcFCmpNE, ir.OpFCmpLT: bcFCmpLT,
	ir.OpFCmpLE: bcFCmpLE, ir.OpFCmpGT: bcFCmpGT, ir.OpFCmpGE: bcFCmpGE,
}

// unaryOps maps the IR's one-operand opcodes onto bytecode opcodes.
var unaryOps = map[ir.Opcode]uint8{
	ir.OpNeg: bcNeg, ir.OpNot: bcNot, ir.OpIToF: bcIToF, ir.OpFToI: bcFToI,
	ir.OpMov: bcMov, ir.OpFNeg: bcFNeg,
}

// Compile lowers a front-end module to bytecode. It rejects malformed
// modules (unknown callees, blocks without terminators, scheduler-only
// pseudo-ops) with an error rather than compiling a trap: the VM trusts
// compiled code to stay within its function's instruction array.
func Compile(m *ir.Module) (*Program, error) {
	p := &Program{
		mod:   m,
		fns:   make([]*fnCode, 0, len(m.Funcs)),
		fnIdx: make(map[string]int32, len(m.Funcs)),
	}
	for i, f := range m.Funcs {
		p.fnIdx[f.Name] = int32(i)
	}
	for _, f := range m.Funcs {
		fc, err := p.compileFunc(f)
		if err != nil {
			return nil, fmt.Errorf("bytecode: %s: %w", f.Name, err)
		}
		p.fns = append(p.fns, fc)
	}
	return p, nil
}

// constKey dedupes constant-pool entries by exact value (float bits, so
// -0.0 and 0.0 stay distinct, matching operand identity in the IR).
type constKey struct {
	isFloat bool
	bits    uint64
}

// funcCompiler holds the per-function lowering state.
type funcCompiler struct {
	p        *Program
	f        *ir.Func
	fc       *fnCode
	constIdx map[constKey]int32
	blockIdx map[*ir.Block]int32
	blockPC  []int32 // dense block index -> first instruction offset
	patches  []patch
}

// patch records a jump operand to resolve once every block's offset is
// known. field selects which instr field holds the pending block index.
type patch struct {
	pc    int32
	field uint8 // 'a', 'b' or 'c'
}

func (p *Program) compileFunc(f *ir.Func) (*fnCode, error) {
	c := &funcCompiler{
		p: p,
		f: f,
		fc: &fnCode{
			name:    f.Name,
			nParams: f.NParams,
			nRegs:   f.NRegs,
			blocks:  f.Blocks,
		},
		constIdx: make(map[constKey]int32),
		blockIdx: make(map[*ir.Block]int32, len(f.Blocks)),
		blockPC:  make([]int32, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		c.blockIdx[b] = int32(i)
	}
	for i, b := range f.Blocks {
		c.blockPC[i] = int32(len(c.fc.code))
		t := b.Terminator()
		if t == nil || !t.Opcode.IsTerminator() {
			return nil, fmt.Errorf("b%d has no terminator", b.ID)
		}
		for _, op := range b.Ops {
			if err := c.emit(op); err != nil {
				return nil, fmt.Errorf("b%d: %s: %w", b.ID, op, err)
			}
		}
	}
	// Resolve jump targets: the patched field holds a block index; replace
	// it with that block's instruction offset.
	for _, pt := range c.patches {
		in := &c.fc.code[pt.pc]
		switch pt.field {
		case 'a':
			in.a = c.blockPC[in.a]
		case 'b':
			in.b = c.blockPC[in.b]
		case 'c':
			in.c = c.blockPC[in.c]
		}
	}
	c.fc.frame = c.fc.nRegs + len(c.fc.consts)
	// A value-producing op may legally discard its result (Dst == NoReg);
	// the tree walker branches on that per execution, the VM instead points
	// such dsts at a scratch slot past the constant pool so the hot loop
	// stays branch-free.
	scratch := int32(c.fc.frame)
	needScratch := false
	for i := range c.fc.code {
		in := &c.fc.code[i]
		if in.dst == -1 && opWritesDst(in.op) {
			in.dst = scratch
			needScratch = true
		}
	}
	if needScratch {
		c.fc.frame++
	}
	return c.fc, nil
}

// opWritesDst reports whether the opcode unconditionally writes r[dst].
// (bcCall handles its optional destination explicitly; control and store
// opcodes reuse the dst field for other purposes or not at all.)
func opWritesDst(op uint8) bool {
	switch op {
	case bcStore, bcBr, bcBrCond, bcCall, bcRet, bcInvalid:
		return false
	}
	return true
}

// reg lowers an operand to a register index: virtual registers map to the
// window prefix, immediates intern into the constant pool mapped to the
// window suffix.
func (c *funcCompiler) reg(a ir.Operand) int32 {
	switch a.Kind {
	case ir.OperReg:
		return int32(a.Reg)
	case ir.OperFloat:
		return c.intern(constKey{isFloat: true, bits: math.Float64bits(a.Float)}, profile.FloatVal(a.Float))
	default:
		return c.intern(constKey{bits: uint64(a.Int)}, profile.IntVal(a.Int))
	}
}

func (c *funcCompiler) intern(k constKey, v profile.Value) int32 {
	if idx, ok := c.constIdx[k]; ok {
		return idx
	}
	idx := int32(c.fc.nRegs + len(c.fc.consts))
	c.fc.consts = append(c.fc.consts, v)
	c.constIdx[k] = idx
	return idx
}

// memOpIndex interns op into the module-wide memory-op table.
func (c *funcCompiler) memOpIndex(op *ir.Op) int32 {
	idx := int32(len(c.p.memOps))
	c.p.memOps = append(c.p.memOps, op)
	return idx
}

func dstReg(op *ir.Op) int32 {
	if op.Dst == ir.NoReg {
		return -1
	}
	return int32(op.Dst)
}

func (c *funcCompiler) emit(op *ir.Op) error {
	in := instr{dst: dstReg(op), a: -1, b: -1, c: -1, aux: -1}
	switch op.Opcode {
	case ir.OpBr:
		in.op = bcBr
		in.a = c.blockIdx[op.Block.Succs[0]] // patched to an offset below
		in.aux = c.blockIdx[op.Block.Succs[0]]
		c.addPatch('a')
	case ir.OpBrCond:
		in.op = bcBrCond
		in.a = c.reg(op.Args[0])
		in.b = c.blockIdx[op.Block.Succs[0]]
		in.c = c.blockIdx[op.Block.Succs[1]]
		in.dst = c.blockIdx[op.Block.Succs[0]] // taken block index
		in.aux = c.blockIdx[op.Block.Succs[1]] // fallthrough block index
		c.addPatch('b')
		c.addPatch('c')
	case ir.OpRet:
		in.op = bcRet
		if len(op.Args) > 0 {
			in.a = c.reg(op.Args[0])
		}
	case ir.OpCall:
		callee := c.p.funcIndex(op.Callee)
		if callee < 0 {
			return fmt.Errorf("call of unknown function %q", op.Callee)
		}
		if want := c.p.mod.Funcs[callee].NParams; want != len(op.Args) {
			return fmt.Errorf("call of %s with %d args, want %d", op.Callee, len(op.Args), want)
		}
		in.op = bcCall
		in.a = int32(len(c.fc.argPool))
		in.b = int32(len(op.Args))
		in.aux = callee
		for _, a := range op.Args {
			c.fc.argPool = append(c.fc.argPool, c.reg(a))
		}
	case ir.OpAddr:
		in.op = bcAddr
		in.c = int32(op.Obj.ID)
	case ir.OpMalloc:
		in.op = bcMalloc
		in.a = c.reg(op.Args[0])
		in.c = int32(op.MallocSite.ID)
		in.aux = c.memOpIndex(op)
	case ir.OpLoad:
		in.op = bcLoad
		in.a = c.reg(op.Args[0])
		in.aux = c.memOpIndex(op)
	case ir.OpStore:
		in.op = bcStore
		in.a = c.reg(op.Args[0])
		in.b = c.reg(op.Args[1])
		in.aux = c.memOpIndex(op)
	default:
		if bc, ok := binaryOps[op.Opcode]; ok {
			in.op = bc
			in.a = c.reg(op.Args[0])
			in.b = c.reg(op.Args[1])
			break
		}
		if bc, ok := unaryOps[op.Opcode]; ok {
			in.op = bc
			in.a = c.reg(op.Args[0])
			break
		}
		return fmt.Errorf("unsupported opcode %s", op.Opcode)
	}
	c.fc.code = append(c.fc.code, in)
	return nil
}

// addPatch marks a jump field of the just-emitted instruction for offset
// resolution.
func (c *funcCompiler) addPatch(field uint8) {
	c.patches = append(c.patches, patch{pc: int32(len(c.fc.code)), field: field})
}
