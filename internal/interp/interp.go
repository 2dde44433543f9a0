// Package interp defines the runtime values, the Profile (dynamic block
// frequencies, per-operation object access counts, heap allocation sizes)
// and the budget types the profiling pipeline shares, and holds a
// tree-walking executor for IR modules.
//
// The production profiler is the bytecode VM (internal/bytecode), which
// reuses these types. The tree-walking executor (New, Interp) is the test
// oracle: FuzzVM, TestSuiteEquivalence and the other equivalence tests in
// internal/bytecode check the VM against it, eval's
// TestPrepareEngineEquivalence checks Prepare's profile against it, and
// the root integration test and the tests of the front end, optimizer,
// points-to analysis, scheduler and partitioners use it to execute
// programs directly. No production path runs it.
package interp

import (
	"fmt"
	"time"

	"mcpart/internal/ir"
)

// ValKind discriminates runtime values.
type ValKind int

// Runtime value kinds.
const (
	ValInt ValKind = iota
	ValFloat
	ValPtr
)

// Value is a runtime value: an integer, a float, or a pointer into an
// object instance (byte offset).
type Value struct {
	Kind ValKind
	I    int64
	F    float64
	Inst *Instance
	Off  int64
}

// IntVal makes an integer value.
func IntVal(i int64) Value { return Value{Kind: ValInt, I: i} }

// FloatVal makes a float value.
func FloatVal(f float64) Value { return Value{Kind: ValFloat, F: f} }

func (v Value) String() string {
	switch v.Kind {
	case ValInt:
		return fmt.Sprintf("%d", v.I)
	case ValFloat:
		return fmt.Sprintf("%g", v.F)
	case ValPtr:
		if v.Inst == nil {
			return "nil"
		}
		return fmt.Sprintf("&%s+%d", v.Inst.Obj.Name, v.Off)
	}
	return "?"
}

// Instance is one runtime allocation of a data object: the unique storage
// of a global, or one dynamic allocation of a heap site.
type Instance struct {
	Obj   *ir.Object
	ID    int64 // unique across the run
	Words []Value
}

// Profile aggregates the dynamic observations the partitioners consume.
type Profile struct {
	// BlockFreq counts executions of each basic block.
	BlockFreq map[*ir.Block]int64
	// OpObj counts, per memory op, dynamic accesses per object ID.
	OpObj map[*ir.Op]map[int]int64
	// ObjBytes records data size per object ID: static size for globals,
	// cumulative allocated bytes for heap sites.
	ObjBytes map[int]int64
	// ObjAccess counts total dynamic accesses per object ID.
	ObjAccess map[int]int64
	// Steps is the total number of operations executed.
	Steps int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		BlockFreq: map[*ir.Block]int64{},
		OpObj:     map[*ir.Op]map[int]int64{},
		ObjBytes:  map[int]int64{},
		ObjAccess: map[int]int64{},
	}
}

func (p *Profile) countAccess(op *ir.Op, objID int) {
	m := p.OpObj[op]
	if m == nil {
		m = map[int]int64{}
		p.OpObj[op] = m
	}
	m[objID]++
	p.ObjAccess[objID]++
}

// Freq returns the execution count of block b.
func (p *Profile) Freq(b *ir.Block) int64 { return p.BlockFreq[b] }

// BudgetError reports an exceeded execution budget: the step budget, the
// heap-byte budget, or the wall-clock deadline. Budgets turn runaway
// programs (fuzz inputs, adversarial benchmarks) into clean errors.
type BudgetError struct {
	// Resource is "step", "byte", or "deadline".
	Resource string
	// Limit is the configured budget (steps or bytes; zero for deadline).
	Limit int64
	// Fn names the function that was executing when the budget ran out.
	Fn string
}

func (e *BudgetError) Error() string {
	if e.Resource == "deadline" {
		return fmt.Sprintf("interp: deadline exceeded in %s", e.Fn)
	}
	return fmt.Sprintf("interp: %s budget of %d exceeded in %s", e.Resource, e.Limit, e.Fn)
}

// deadlineStride is how many steps run between wall-clock checks: frequent
// enough to stop promptly, rare enough that time.Now stays off the hot
// path.
const deadlineStride = 1 << 16

// Options configures a run.
type Options struct {
	// MaxSteps bounds execution; 0 means the default of 50 million.
	MaxSteps int64
	// Deadline aborts execution once the wall clock passes it (checked
	// every deadlineStride steps); the zero time means no deadline.
	Deadline time.Time
	// MaxBytes bounds the total data bytes the program may hold: global
	// storage plus every malloc. 0 means no byte budget.
	MaxBytes int64
	// TraceMem, when non-nil, is invoked on every executed load and store
	// with the accessed object ID, a unique instance number (globals get
	// one instance; every malloc creates a fresh one), and the byte
	// offset. Used by the cache-simulation extension.
	TraceMem func(objID int, inst int64, off int64, isStore bool)
}

// Interp executes one module.
type Interp struct {
	mod        *ir.Module
	globals    []*Instance // indexed by object ID (nil for heap sites)
	prof       *Profile
	maxSteps   int64
	deadline   time.Time
	maxBytes   int64
	allocBytes int64
	trace      func(objID int, inst int64, off int64, isStore bool)
	nextInst   int64
	depth      int
}

// maxCallDepth bounds recursion so runaway programs fail cleanly instead
// of exhausting the host stack.
const maxCallDepth = 10000

// New prepares an interpreter for module m, allocating and initializing
// global storage.
func New(m *ir.Module, opts Options) *Interp {
	in := &Interp{
		mod:      m,
		globals:  make([]*Instance, len(m.Objects)),
		prof:     NewProfile(),
		maxSteps: opts.MaxSteps,
		deadline: opts.Deadline,
		maxBytes: opts.MaxBytes,
		trace:    opts.TraceMem,
	}
	if in.maxSteps == 0 {
		in.maxSteps = 50_000_000
	}
	for _, o := range m.Objects {
		if o.Kind != ir.ObjGlobal {
			continue
		}
		inst := &Instance{Obj: o, ID: in.nextInst, Words: make([]Value, o.Words())}
		in.nextInst++
		for i := range inst.Words {
			if o.IsFloat {
				inst.Words[i] = FloatVal(0)
			} else {
				inst.Words[i] = IntVal(0)
			}
		}
		if o.IsFloat {
			for i, f := range o.FloatInit {
				inst.Words[i] = FloatVal(f)
			}
		} else {
			for i, v := range o.Init {
				inst.Words[i] = IntVal(v)
			}
		}
		in.globals[o.ID] = inst
		in.prof.ObjBytes[o.ID] = o.Size
		in.allocBytes += o.Size
	}
	return in
}

// Profile returns the observations accumulated so far.
func (in *Interp) Profile() *Profile { return in.prof }

// AllocBytes returns the total data bytes held: global storage plus every
// malloc. It is the quantity the MaxBytes budget is charged against.
func (in *Interp) AllocBytes() int64 { return in.allocBytes }

// Run executes the named function with the given arguments and returns its
// result (zero int for void functions).
func (in *Interp) Run(fn string, args ...Value) (Value, error) {
	f := in.mod.Func(fn)
	if f == nil {
		return Value{}, fmt.Errorf("interp: no function %q", fn)
	}
	return in.call(f, args)
}

// RunMain executes main().
func (in *Interp) RunMain() (Value, error) { return in.Run("main") }

func (in *Interp) call(f *ir.Func, args []Value) (Value, error) {
	if len(args) != f.NParams {
		return Value{}, fmt.Errorf("interp: %s expects %d args, got %d",
			f.Name, f.NParams, len(args))
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > maxCallDepth {
		return Value{}, fmt.Errorf("interp: call depth exceeds %d in %s", maxCallDepth, f.Name)
	}
	regs := make([]Value, f.NRegs)
	copy(regs, args)
	b := f.Entry()
	for {
		in.prof.BlockFreq[b]++
		for _, op := range b.Ops {
			in.prof.Steps++
			if in.prof.Steps > in.maxSteps {
				return Value{}, &BudgetError{Resource: "step", Limit: in.maxSteps, Fn: f.Name}
			}
			if !in.deadline.IsZero() && in.prof.Steps%deadlineStride == 0 &&
				time.Now().After(in.deadline) {
				return Value{}, &BudgetError{Resource: "deadline", Fn: f.Name}
			}
			switch op.Opcode {
			case ir.OpBr:
				b = b.Succs[0]
			case ir.OpBrCond:
				c, err := in.operand(regs, op.Args[0])
				if err != nil {
					return Value{}, in.wrap(f, op, err)
				}
				if c.Kind != ValInt {
					return Value{}, in.wrap(f, op, fmt.Errorf("brcond on non-int %s", c))
				}
				if c.I != 0 {
					b = b.Succs[0]
				} else {
					b = b.Succs[1]
				}
			case ir.OpRet:
				if len(op.Args) == 0 {
					return IntVal(0), nil
				}
				v, err := in.operand(regs, op.Args[0])
				if err != nil {
					return Value{}, in.wrap(f, op, err)
				}
				return v, nil
			case ir.OpCall:
				callee := in.mod.Func(op.Callee)
				vals := make([]Value, len(op.Args))
				for i, a := range op.Args {
					v, err := in.operand(regs, a)
					if err != nil {
						return Value{}, in.wrap(f, op, err)
					}
					vals[i] = v
				}
				r, err := in.call(callee, vals)
				if err != nil {
					return Value{}, err
				}
				if op.Dst != ir.NoReg {
					regs[op.Dst] = r
				}
			default:
				if err := in.exec(regs, op); err != nil {
					return Value{}, in.wrap(f, op, err)
				}
			}
			if op.Opcode.IsTerminator() && op.Opcode != ir.OpRet {
				break // proceed to new block
			}
		}
	}
}

func (in *Interp) wrap(f *ir.Func, op *ir.Op, err error) error {
	return fmt.Errorf("interp: in %s b%d: %s: %w", f.Name, op.Block.ID, op, err)
}

func (in *Interp) operand(regs []Value, a ir.Operand) (Value, error) {
	switch a.Kind {
	case ir.OperReg:
		return regs[a.Reg], nil
	case ir.OperInt:
		return IntVal(a.Int), nil
	case ir.OperFloat:
		return FloatVal(a.Float), nil
	}
	return Value{}, fmt.Errorf("bad operand")
}

func (in *Interp) exec(regs []Value, op *ir.Op) error {
	args := make([]Value, len(op.Args))
	for i, a := range op.Args {
		v, err := in.operand(regs, a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	v, err := in.eval(op, args)
	if err != nil {
		return err
	}
	if op.Dst != ir.NoReg {
		regs[op.Dst] = v
	}
	return nil
}

func (in *Interp) eval(op *ir.Op, a []Value) (Value, error) {
	switch op.Opcode {
	case ir.OpMov:
		return a[0], nil
	case ir.OpAddr:
		return Value{Kind: ValPtr, Inst: in.globals[op.Obj.ID]}, nil
	case ir.OpMalloc:
		if a[0].Kind != ValInt || a[0].I < 0 {
			return Value{}, fmt.Errorf("malloc of bad size %s", a[0])
		}
		in.allocBytes += a[0].I
		if in.maxBytes > 0 && in.allocBytes > in.maxBytes {
			return Value{}, &BudgetError{Resource: "byte", Limit: in.maxBytes, Fn: op.Block.Func.Name}
		}
		words := (a[0].I + 7) / 8
		inst := &Instance{Obj: op.MallocSite, ID: in.nextInst, Words: make([]Value, words)}
		in.nextInst++
		for i := range inst.Words {
			inst.Words[i] = IntVal(0)
		}
		in.prof.ObjBytes[op.MallocSite.ID] += a[0].I
		in.prof.countAccess(op, op.MallocSite.ID)
		return Value{Kind: ValPtr, Inst: inst}, nil
	case ir.OpLoad:
		w, err := in.deref(a[0])
		if err != nil {
			return Value{}, err
		}
		in.prof.countAccess(op, a[0].Inst.Obj.ID)
		if in.trace != nil {
			in.trace(a[0].Inst.Obj.ID, a[0].Inst.ID, a[0].Off, false)
		}
		return *w, nil
	case ir.OpStore:
		w, err := in.deref(a[0])
		if err != nil {
			return Value{}, err
		}
		in.prof.countAccess(op, a[0].Inst.Obj.ID)
		if in.trace != nil {
			in.trace(a[0].Inst.Obj.ID, a[0].Inst.ID, a[0].Off, true)
		}
		*w = a[1]
		return Value{}, nil
	case ir.OpAdd:
		// Pointer arithmetic: ptr + int in either order.
		if a[0].Kind == ValPtr && a[1].Kind == ValInt {
			return Value{Kind: ValPtr, Inst: a[0].Inst, Off: a[0].Off + a[1].I}, nil
		}
		if a[1].Kind == ValPtr && a[0].Kind == ValInt {
			return Value{Kind: ValPtr, Inst: a[1].Inst, Off: a[1].Off + a[0].I}, nil
		}
	case ir.OpSub:
		if a[0].Kind == ValPtr && a[1].Kind == ValInt {
			return Value{Kind: ValPtr, Inst: a[0].Inst, Off: a[0].Off - a[1].I}, nil
		}
		if a[0].Kind == ValPtr && a[1].Kind == ValPtr {
			if a[0].Inst != a[1].Inst {
				return Value{}, fmt.Errorf("subtraction of pointers into different objects")
			}
			return IntVal(a[0].Off - a[1].Off), nil
		}
	case ir.OpCmpEQ, ir.OpCmpNE:
		if a[0].Kind == ValPtr || a[1].Kind == ValPtr {
			eq := a[0].Kind == ValPtr && a[1].Kind == ValPtr &&
				a[0].Inst == a[1].Inst && a[0].Off == a[1].Off
			if op.Opcode == ir.OpCmpNE {
				eq = !eq
			}
			return boolVal(eq), nil
		}
	}
	// Pure integer ops.
	switch op.Opcode {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr,
		ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
		x, err := wantInt(a[0])
		if err != nil {
			return Value{}, err
		}
		y, err := wantInt(a[1])
		if err != nil {
			return Value{}, err
		}
		return intBinary(op.Opcode, x, y)
	case ir.OpNeg:
		x, err := wantInt(a[0])
		if err != nil {
			return Value{}, err
		}
		return IntVal(-x), nil
	case ir.OpNot:
		x, err := wantInt(a[0])
		if err != nil {
			return Value{}, err
		}
		return IntVal(^x), nil
	case ir.OpIToF:
		x, err := wantInt(a[0])
		if err != nil {
			return Value{}, err
		}
		return FloatVal(float64(x)), nil
	}
	// Float ops.
	switch op.Opcode {
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE:
		x, err := wantFloat(a[0])
		if err != nil {
			return Value{}, err
		}
		y, err := wantFloat(a[1])
		if err != nil {
			return Value{}, err
		}
		return floatBinary(op.Opcode, x, y)
	case ir.OpFNeg:
		x, err := wantFloat(a[0])
		if err != nil {
			return Value{}, err
		}
		return FloatVal(-x), nil
	case ir.OpFToI:
		x, err := wantFloat(a[0])
		if err != nil {
			return Value{}, err
		}
		return IntVal(int64(x)), nil
	}
	return Value{}, fmt.Errorf("unhandled opcode %s", op.Opcode)
}

func (in *Interp) deref(p Value) (*Value, error) {
	if p.Kind != ValPtr || p.Inst == nil {
		return nil, fmt.Errorf("dereference of non-pointer %s", p)
	}
	if p.Off%8 != 0 {
		return nil, fmt.Errorf("unaligned access at %s", p)
	}
	idx := p.Off / 8
	if idx < 0 || idx >= int64(len(p.Inst.Words)) {
		return nil, fmt.Errorf("out-of-bounds access at %s (object has %d words)",
			p, len(p.Inst.Words))
	}
	return &p.Inst.Words[idx], nil
}

func wantInt(v Value) (int64, error) {
	if v.Kind != ValInt {
		return 0, fmt.Errorf("expected int, got %s", v)
	}
	return v.I, nil
}

func wantFloat(v Value) (float64, error) {
	if v.Kind != ValFloat {
		return 0, fmt.Errorf("expected float, got %s", v)
	}
	return v.F, nil
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func intBinary(opc ir.Opcode, x, y int64) (Value, error) {
	switch opc {
	case ir.OpAdd:
		return IntVal(x + y), nil
	case ir.OpSub:
		return IntVal(x - y), nil
	case ir.OpMul:
		return IntVal(x * y), nil
	case ir.OpDiv:
		if y == 0 {
			return Value{}, fmt.Errorf("division by zero")
		}
		return IntVal(x / y), nil
	case ir.OpRem:
		if y == 0 {
			return Value{}, fmt.Errorf("remainder by zero")
		}
		return IntVal(x % y), nil
	case ir.OpAnd:
		return IntVal(x & y), nil
	case ir.OpOr:
		return IntVal(x | y), nil
	case ir.OpXor:
		return IntVal(x ^ y), nil
	case ir.OpShl:
		return IntVal(x << (uint64(y) & 63)), nil
	case ir.OpShr:
		return IntVal(x >> (uint64(y) & 63)), nil
	case ir.OpCmpEQ:
		return boolVal(x == y), nil
	case ir.OpCmpNE:
		return boolVal(x != y), nil
	case ir.OpCmpLT:
		return boolVal(x < y), nil
	case ir.OpCmpLE:
		return boolVal(x <= y), nil
	case ir.OpCmpGT:
		return boolVal(x > y), nil
	case ir.OpCmpGE:
		return boolVal(x >= y), nil
	}
	return Value{}, fmt.Errorf("bad int opcode %s", opc)
}

func floatBinary(opc ir.Opcode, x, y float64) (Value, error) {
	switch opc {
	case ir.OpFAdd:
		return FloatVal(x + y), nil
	case ir.OpFSub:
		return FloatVal(x - y), nil
	case ir.OpFMul:
		return FloatVal(x * y), nil
	case ir.OpFDiv:
		return FloatVal(x / y), nil
	case ir.OpFCmpEQ:
		return boolVal(x == y), nil
	case ir.OpFCmpNE:
		return boolVal(x != y), nil
	case ir.OpFCmpLT:
		return boolVal(x < y), nil
	case ir.OpFCmpLE:
		return boolVal(x <= y), nil
	case ir.OpFCmpGT:
		return boolVal(x > y), nil
	case ir.OpFCmpGE:
		return boolVal(x >= y), nil
	}
	return Value{}, fmt.Errorf("bad float opcode %s", opc)
}
