// Package ir defines the intermediate representation used throughout the
// partitioning pipeline: a non-SSA, virtual-register IR organized as modules
// of functions, functions of basic blocks, and blocks of operations.
//
// The IR is deliberately close to the operation granularity that the paper's
// partitioners work at: every operation occupies one function-unit slot on a
// clustered VLIW machine, memory operations are explicit loads and stores on
// word-addressed data objects, and data objects (global variables and heap
// allocation sites) are first-class so that the points-to analysis and the
// data partitioner can reason about them.
package ir

import (
	"fmt"
	"strconv"
)

// VReg names a virtual register within a function. Virtual registers are
// dense small integers starting at 0; registers 0..NParams-1 hold the
// incoming arguments at function entry.
type VReg int

// NoReg marks the absence of a destination register.
const NoReg VReg = -1

// Opcode enumerates every operation kind in the IR.
type Opcode int

// The opcode space. Integer arithmetic operates on 64-bit two's-complement
// values; float arithmetic on IEEE-754 float64.
const (
	OpInvalid Opcode = iota

	// Integer arithmetic and logic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot

	// Integer comparisons; result is 0 or 1.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	// Floating-point comparisons; result is integer 0 or 1.
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE

	// Conversions.
	OpIToF
	OpFToI

	// Register copy.
	OpMov

	// Memory.
	OpAddr   // dst = address of the global object in Obj
	OpMalloc // dst = pointer to fresh heap storage of Args[0] bytes; site id in MallocSite
	OpLoad   // dst = memory word at address Args[0]
	OpStore  // memory word at address Args[0] = Args[1]

	// Control.
	OpBr     // unconditional branch to Block.Succs[0]
	OpBrCond // if Args[0] != 0 branch to Succs[0] else Succs[1]
	OpCall   // dst (optional) = call Callee(Args...)
	OpRet    // return Args[0] if present

	// OpMove is the explicit intercluster move pseudo-operation. It never
	// appears in front-end IR; the scheduler materializes it when a value
	// crosses clusters.
	OpMove

	numOpcodes
)

var opcodeNames = [...]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt",
	OpCmpLE: "cmple", OpCmpGT: "cmpgt", OpCmpGE: "cmpge",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpFCmpEQ: "fcmpeq", OpFCmpNE: "fcmpne", OpFCmpLT: "fcmplt",
	OpFCmpLE: "fcmple", OpFCmpGT: "fcmpgt", OpFCmpGE: "fcmpge",
	OpIToF: "itof", OpFToI: "ftoi",
	OpMov:  "mov",
	OpAddr: "addr", OpMalloc: "malloc", OpLoad: "load", OpStore: "store",
	OpBr: "br", OpBrCond: "brcond", OpCall: "call", OpRet: "ret",
	OpMove: "move",
}

// String returns the assembler mnemonic of the opcode.
func (o Opcode) String() string {
	if o < 0 || int(o) >= len(opcodeNames) {
		return "opcode(" + strconv.Itoa(int(o)) + ")"
	}
	return opcodeNames[o]
}

// IsMem reports whether the opcode accesses data memory.
func (o Opcode) IsMem() bool {
	switch o {
	case OpLoad, OpStore, OpMalloc:
		return true
	}
	return false
}

// IsBranch reports whether the opcode transfers control.
func (o Opcode) IsBranch() bool {
	switch o {
	case OpBr, OpBrCond, OpCall, OpRet:
		return true
	}
	return false
}

// IsTerminator reports whether the opcode must end a basic block.
func (o Opcode) IsTerminator() bool {
	switch o {
	case OpBr, OpBrCond, OpRet:
		return true
	}
	return false
}

// IsFloat reports whether the opcode executes on a floating-point unit.
func (o Opcode) IsFloat() bool {
	switch o {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg,
		OpFCmpEQ, OpFCmpNE, OpFCmpLT, OpFCmpLE, OpFCmpGT, OpFCmpGE,
		OpIToF, OpFToI:
		return true
	}
	return false
}

// HasDst reports whether operations with this opcode define a register.
func (o Opcode) HasDst() bool {
	switch o {
	case OpStore, OpBr, OpBrCond, OpRet, OpInvalid:
		return false
	case OpCall:
		return true // optional; NoReg allowed
	}
	return true
}

// OperandKind discriminates Operand payloads.
type OperandKind int

// Operand kinds.
const (
	OperReg OperandKind = iota
	OperInt
	OperFloat
)

// Operand is a use of either a virtual register or an immediate constant.
type Operand struct {
	Kind  OperandKind
	Reg   VReg
	Int   int64
	Float float64
}

// Reg returns a register operand.
func Reg(r VReg) Operand { return Operand{Kind: OperReg, Reg: r} }

// ConstInt returns an integer immediate operand.
func ConstInt(v int64) Operand { return Operand{Kind: OperInt, Int: v} }

// ConstFloat returns a floating-point immediate operand.
func ConstFloat(v float64) Operand { return Operand{Kind: OperFloat, Float: v} }

// String renders the operand in IR syntax (see appendOperand).
func (o Operand) String() string { return string(appendOperand(nil, o)) }

// IsReg reports whether the operand reads a virtual register.
func (o Operand) IsReg() bool { return o.Kind == OperReg }

// ObjKind discriminates data object categories.
type ObjKind int

// Object categories. Global objects are statically sized and may carry
// initializers; heap objects stand for the storage allocated by one static
// malloc call site, whose total size is discovered by profiling.
const (
	ObjGlobal ObjKind = iota
	ObjHeap
)

func (k ObjKind) String() string {
	if k == ObjGlobal {
		return "global"
	}
	return "heap"
}

// Object is a data object: a named global variable or a heap allocation
// site. Objects are the unit of data partitioning — each object is assigned
// exactly one home cluster memory by the data partitioner.
type Object struct {
	ID   int     // dense index within the module
	Name string  // source name, or "malloc@f:N" for heap sites
	Kind ObjKind // global or heap
	Size int64   // bytes; for heap sites, filled from the profile
	// Init holds initial word values for globals (8 bytes per word);
	// missing words are zero. Floats are stored via FloatInit.
	Init      []int64
	FloatInit []float64 // parallel to Init when IsFloat
	IsFloat   bool      // element interpretation for initializers
}

// Words returns the object's size in 8-byte words, rounding up.
func (o *Object) Words() int64 { return (o.Size + 7) / 8 }

func (o *Object) String() string {
	return fmt.Sprintf("%s %s[%d bytes]", o.Kind, o.Name, o.Size)
}

// Op is one IR operation. Ops are identified within their function by a
// dense ID assigned by the builder and kept stable by analyses.
type Op struct {
	ID     int
	Opcode Opcode
	Dst    VReg // NoReg when the op defines nothing
	Args   []Operand

	// Obj is the referenced global for OpAddr.
	Obj *Object
	// MallocSite is the heap object for OpMalloc.
	MallocSite *Object
	// Callee names the target function for OpCall.
	Callee string

	// Block is the containing basic block (maintained by the builder).
	Block *Block

	// MayAccess lists the IDs of data objects this load/store/malloc may
	// touch; populated by the points-to analysis and consumed by the
	// partitioners. Sorted ascending.
	MayAccess []int
}

func (op *Op) String() string { return string(appendOp(nil, op)) }

// Block is a basic block: a maximal straight-line op sequence ended by a
// terminator. Succs holds the control-flow successors in branch order
// (taken, fallthrough for BrCond).
type Block struct {
	ID    int
	Ops   []*Op
	Succs []*Block
	Preds []*Block
	Func  *Func
}

// Terminator returns the block's final op, or nil for an empty block.
func (b *Block) Terminator() *Op {
	if len(b.Ops) == 0 {
		return nil
	}
	return b.Ops[len(b.Ops)-1]
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// Func is one function: a CFG of basic blocks over a private virtual
// register file. Registers 0..NParams-1 receive the arguments.
type Func struct {
	Name    string
	NParams int
	NRegs   int // number of virtual registers used
	Blocks  []*Block
	Module  *Module
	NOps    int // number of op IDs allocated (dense 0..NOps-1)
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// OpsByID returns a dense slice mapping op ID to op.
func (f *Func) OpsByID() []*Op {
	ops := make([]*Op, f.NOps)
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			ops[op.ID] = op
		}
	}
	return ops
}

// Module is a whole program: functions plus the data objects (globals and
// heap allocation sites) they manipulate.
type Module struct {
	Name    string
	Funcs   []*Func
	Objects []*Object // dense by Object.ID; globals first, then heap sites
	funcIdx map[string]*Func
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, funcIdx: make(map[string]*Func)}
}

// Func looks up a function by name, returning nil when absent.
func (m *Module) Func(name string) *Func { return m.funcIdx[name] }

// AddFunc appends a function to the module and indexes it by name.
func (m *Module) AddFunc(f *Func) {
	f.Module = m
	m.Funcs = append(m.Funcs, f)
	if m.funcIdx == nil {
		m.funcIdx = make(map[string]*Func)
	}
	m.funcIdx[f.Name] = f
}

// AddObject appends a data object, assigning its dense ID.
func (m *Module) AddObject(o *Object) *Object {
	o.ID = len(m.Objects)
	m.Objects = append(m.Objects, o)
	return o
}
