// Package interp holds a tree-walking executor for IR modules, an engine
// independent of the bytecode VM (internal/bytecode) that profiles
// programs in production. It is the VM's test oracle: FuzzVM,
// TestSuiteEquivalence and the other equivalence tests in
// internal/bytecode check the VM against it, eval's
// TestPrepareEngineEquivalence checks Prepare's profile against it, and
// the root integration test and the tests of the front end, optimizer,
// points-to analysis, scheduler and partitioners use it to execute
// programs directly. Outside tests only the benchmark harness imports it,
// as an independent checksum oracle; no production binary links it.
//
// Both engines share the value, profile and budget types and the runtime
// bounds of internal/profile.
package interp

import (
	"fmt"
	"time"

	"mcpart/internal/ir"
	"mcpart/internal/profile"
)

// Options configures a run. It aliases profile.Options so callers of the
// tree walker (tests, and the benchmark harness's independent checksum
// oracle) keep spelling it interp.Options.
type Options = profile.Options

// Interp executes one module.
type Interp struct {
	mod        *ir.Module
	globals    []*profile.Instance // indexed by object ID (nil for heap sites)
	prof       *profile.Profile
	maxSteps   int64
	deadline   time.Time
	maxBytes   int64
	allocBytes int64
	trace      func(objID int, inst int64, off int64, isStore bool)
	nextInst   int64
	depth      int
}

// New prepares an interpreter for module m, allocating and initializing
// global storage.
func New(m *ir.Module, opts Options) *Interp {
	in := &Interp{
		mod:      m,
		globals:  make([]*profile.Instance, len(m.Objects)),
		prof:     profile.NewProfile(),
		maxSteps: opts.MaxSteps,
		deadline: opts.Deadline,
		maxBytes: opts.MaxBytes,
		trace:    opts.TraceMem,
	}
	if in.maxSteps == 0 {
		in.maxSteps = profile.DefaultMaxSteps
	}
	for _, o := range m.Objects {
		if o.Kind != ir.ObjGlobal {
			continue
		}
		in.globals[o.ID] = profile.NewGlobal(o, in.nextInst)
		in.nextInst++
		in.prof.ObjBytes[o.ID] = o.Size
		in.allocBytes += o.Size
	}
	return in
}

// Profile returns the observations accumulated so far.
func (in *Interp) Profile() *profile.Profile { return in.prof }

// Run executes the named function with the given arguments and returns its
// result (zero int for void functions).
func (in *Interp) Run(fn string, args ...profile.Value) (profile.Value, error) {
	f := in.mod.Func(fn)
	if f == nil {
		return profile.Value{}, fmt.Errorf("interp: no function %q", fn)
	}
	return in.call(f, args)
}

// RunMain executes main().
func (in *Interp) RunMain() (profile.Value, error) { return in.Run("main") }

func (in *Interp) call(f *ir.Func, args []profile.Value) (profile.Value, error) {
	if len(args) != f.NParams {
		return profile.Value{}, fmt.Errorf("interp: %s expects %d args, got %d",
			f.Name, f.NParams, len(args))
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > profile.MaxCallDepth {
		return profile.Value{}, fmt.Errorf("interp: call depth exceeds %d in %s", profile.MaxCallDepth, f.Name)
	}
	regs := make([]profile.Value, f.NRegs)
	copy(regs, args)
	b := f.Entry()
	for {
		in.prof.BlockFreq[b]++
		for _, op := range b.Ops {
			in.prof.Steps++
			if in.prof.Steps > in.maxSteps {
				return profile.Value{}, &profile.BudgetError{Resource: "step", Limit: in.maxSteps, Fn: f.Name}
			}
			if !in.deadline.IsZero() && in.prof.Steps%profile.DeadlineStride == 0 &&
				time.Now().After(in.deadline) {
				return profile.Value{}, &profile.BudgetError{Resource: "deadline", Fn: f.Name}
			}
			switch op.Opcode {
			case ir.OpBr:
				b = b.Succs[0]
			case ir.OpBrCond:
				c, err := in.operand(regs, op.Args[0])
				if err != nil {
					return profile.Value{}, in.wrap(f, op, err)
				}
				if c.Kind != profile.ValInt {
					return profile.Value{}, in.wrap(f, op, fmt.Errorf("brcond on non-int %s", c))
				}
				if c.I != 0 {
					b = b.Succs[0]
				} else {
					b = b.Succs[1]
				}
			case ir.OpRet:
				if len(op.Args) == 0 {
					return profile.IntVal(0), nil
				}
				v, err := in.operand(regs, op.Args[0])
				if err != nil {
					return profile.Value{}, in.wrap(f, op, err)
				}
				return v, nil
			case ir.OpCall:
				callee := in.mod.Func(op.Callee)
				vals := make([]profile.Value, len(op.Args))
				for i, a := range op.Args {
					v, err := in.operand(regs, a)
					if err != nil {
						return profile.Value{}, in.wrap(f, op, err)
					}
					vals[i] = v
				}
				r, err := in.call(callee, vals)
				if err != nil {
					return profile.Value{}, err
				}
				if op.Dst != ir.NoReg {
					regs[op.Dst] = r
				}
			default:
				if err := in.exec(regs, op); err != nil {
					return profile.Value{}, in.wrap(f, op, err)
				}
			}
			if op.Opcode.IsTerminator() && op.Opcode != ir.OpRet {
				break // proceed to new block
			}
		}
	}
}

func countAccess(p *profile.Profile, op *ir.Op, objID int) {
	m := p.OpObj[op]
	if m == nil {
		m = map[int]int64{}
		p.OpObj[op] = m
	}
	m[objID]++
	p.ObjAccess[objID]++
}

func (in *Interp) wrap(f *ir.Func, op *ir.Op, err error) error {
	return fmt.Errorf("interp: in %s b%d: %s: %w", f.Name, op.Block.ID, op, err)
}

func (in *Interp) operand(regs []profile.Value, a ir.Operand) (profile.Value, error) {
	switch a.Kind {
	case ir.OperReg:
		return regs[a.Reg], nil
	case ir.OperInt:
		return profile.IntVal(a.Int), nil
	case ir.OperFloat:
		return profile.FloatVal(a.Float), nil
	}
	return profile.Value{}, fmt.Errorf("bad operand")
}

func (in *Interp) exec(regs []profile.Value, op *ir.Op) error {
	args := make([]profile.Value, len(op.Args))
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

func (in *Interp) eval(op *ir.Op, a []profile.Value) (profile.Value, error) {
	switch op.Opcode {
	case ir.OpMov:
		return a[0], nil
	case ir.OpAddr:
		return profile.Value{Kind: profile.ValPtr, Inst: in.globals[op.Obj.ID]}, nil
	case ir.OpMalloc:
		if a[0].Kind != profile.ValInt || a[0].I < 0 {
			return profile.Value{}, fmt.Errorf("malloc of bad size %s", a[0])
		}
		in.allocBytes += a[0].I
		if in.maxBytes > 0 && in.allocBytes > in.maxBytes {
			return profile.Value{}, &profile.BudgetError{Resource: "byte", Limit: in.maxBytes, Fn: op.Block.Func.Name}
		}
		words := (a[0].I + 7) / 8
		inst := &profile.Instance{Obj: op.MallocSite, ID: in.nextInst, Words: make([]profile.Value, words)}
		in.nextInst++
		for i := range inst.Words {
			inst.Words[i] = profile.IntVal(0)
		}
		in.prof.ObjBytes[op.MallocSite.ID] += a[0].I
		countAccess(in.prof, op, op.MallocSite.ID)
		return profile.Value{Kind: profile.ValPtr, Inst: inst}, nil
	case ir.OpLoad:
		w, err := in.deref(a[0])
		if err != nil {
			return profile.Value{}, err
		}
		countAccess(in.prof, op, a[0].Inst.Obj.ID)
		if in.trace != nil {
			in.trace(a[0].Inst.Obj.ID, a[0].Inst.ID, a[0].Off, false)
		}
		return *w, nil
	case ir.OpStore:
		w, err := in.deref(a[0])
		if err != nil {
			return profile.Value{}, err
		}
		countAccess(in.prof, op, a[0].Inst.Obj.ID)
		if in.trace != nil {
			in.trace(a[0].Inst.Obj.ID, a[0].Inst.ID, a[0].Off, true)
		}
		*w = a[1]
		return profile.Value{}, nil
	case ir.OpAdd:
		// Pointer arithmetic: ptr + int in either order.
		if a[0].Kind == profile.ValPtr && a[1].Kind == profile.ValInt {
			return profile.Value{Kind: profile.ValPtr, Inst: a[0].Inst, Off: a[0].Off + a[1].I}, nil
		}
		if a[1].Kind == profile.ValPtr && a[0].Kind == profile.ValInt {
			return profile.Value{Kind: profile.ValPtr, Inst: a[1].Inst, Off: a[1].Off + a[0].I}, nil
		}
	case ir.OpSub:
		if a[0].Kind == profile.ValPtr && a[1].Kind == profile.ValInt {
			return profile.Value{Kind: profile.ValPtr, Inst: a[0].Inst, Off: a[0].Off - a[1].I}, nil
		}
		if a[0].Kind == profile.ValPtr && a[1].Kind == profile.ValPtr {
			if a[0].Inst != a[1].Inst {
				return profile.Value{}, fmt.Errorf("subtraction of pointers into different objects")
			}
			return profile.IntVal(a[0].Off - a[1].Off), nil
		}
	case ir.OpCmpEQ, ir.OpCmpNE:
		if a[0].Kind == profile.ValPtr || a[1].Kind == profile.ValPtr {
			eq := a[0].Kind == profile.ValPtr && a[1].Kind == profile.ValPtr &&
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
			return profile.Value{}, err
		}
		y, err := wantInt(a[1])
		if err != nil {
			return profile.Value{}, err
		}
		return intBinary(op.Opcode, x, y)
	case ir.OpNeg:
		x, err := wantInt(a[0])
		if err != nil {
			return profile.Value{}, err
		}
		return profile.IntVal(-x), nil
	case ir.OpNot:
		x, err := wantInt(a[0])
		if err != nil {
			return profile.Value{}, err
		}
		return profile.IntVal(^x), nil
	case ir.OpIToF:
		x, err := wantInt(a[0])
		if err != nil {
			return profile.Value{}, err
		}
		return profile.FloatVal(float64(x)), nil
	}
	// Float ops.
	switch op.Opcode {
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE:
		x, err := wantFloat(a[0])
		if err != nil {
			return profile.Value{}, err
		}
		y, err := wantFloat(a[1])
		if err != nil {
			return profile.Value{}, err
		}
		return floatBinary(op.Opcode, x, y)
	case ir.OpFNeg:
		x, err := wantFloat(a[0])
		if err != nil {
			return profile.Value{}, err
		}
		return profile.FloatVal(-x), nil
	case ir.OpFToI:
		x, err := wantFloat(a[0])
		if err != nil {
			return profile.Value{}, err
		}
		return profile.IntVal(int64(x)), nil
	}
	return profile.Value{}, fmt.Errorf("unhandled opcode %s", op.Opcode)
}

func (in *Interp) deref(p profile.Value) (*profile.Value, error) {
	if p.Kind != profile.ValPtr || p.Inst == nil {
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

func wantInt(v profile.Value) (int64, error) {
	if v.Kind != profile.ValInt {
		return 0, fmt.Errorf("expected int, got %s", v)
	}
	return v.I, nil
}

func wantFloat(v profile.Value) (float64, error) {
	if v.Kind != profile.ValFloat {
		return 0, fmt.Errorf("expected float, got %s", v)
	}
	return v.F, nil
}

func boolVal(b bool) profile.Value {
	if b {
		return profile.IntVal(1)
	}
	return profile.IntVal(0)
}

func intBinary(opc ir.Opcode, x, y int64) (profile.Value, error) {
	switch opc {
	case ir.OpAdd:
		return profile.IntVal(x + y), nil
	case ir.OpSub:
		return profile.IntVal(x - y), nil
	case ir.OpMul:
		return profile.IntVal(x * y), nil
	case ir.OpDiv:
		if y == 0 {
			return profile.Value{}, fmt.Errorf("division by zero")
		}
		return profile.IntVal(x / y), nil
	case ir.OpRem:
		if y == 0 {
			return profile.Value{}, fmt.Errorf("remainder by zero")
		}
		return profile.IntVal(x % y), nil
	case ir.OpAnd:
		return profile.IntVal(x & y), nil
	case ir.OpOr:
		return profile.IntVal(x | y), nil
	case ir.OpXor:
		return profile.IntVal(x ^ y), nil
	case ir.OpShl:
		return profile.IntVal(x << (uint64(y) & 63)), nil
	case ir.OpShr:
		return profile.IntVal(x >> (uint64(y) & 63)), nil
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
	return profile.Value{}, fmt.Errorf("bad int opcode %s", opc)
}

func floatBinary(opc ir.Opcode, x, y float64) (profile.Value, error) {
	switch opc {
	case ir.OpFAdd:
		return profile.FloatVal(x + y), nil
	case ir.OpFSub:
		return profile.FloatVal(x - y), nil
	case ir.OpFMul:
		return profile.FloatVal(x * y), nil
	case ir.OpFDiv:
		return profile.FloatVal(x / y), nil
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
	return profile.Value{}, fmt.Errorf("bad float opcode %s", opc)
}
