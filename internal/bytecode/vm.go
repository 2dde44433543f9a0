package bytecode

import (
	"fmt"
	"time"

	"mcpart/internal/ir"
	"mcpart/internal/obs"
	"mcpart/internal/profile"
)

// frame is one suspended caller: where to resume (pc is already past the
// call instruction) and where the callee's result goes in the caller's
// register window (-1: discarded).
type frame struct {
	fi     int32
	base   int32
	pc     int32
	retDst int32
}

// VM executes a compiled Program while accumulating the same profile the
// tree-walking interpreter would. One VM may run any number of calls;
// profile state is cumulative, exactly like interp.Interp.
type VM struct {
	p       *Program
	globals []*profile.Instance // by object ID; nil for heap sites

	regs   []profile.Value // register slab; frames carve windows
	frames []frame         // suspended callers (depth = len+1 while running)

	// Dense profile accumulators; the map-keyed profile.Profile is
	// materialized from these by Profile().
	blockFreq [][]int64 // [fn index][block index]
	memCounts []int64   // [mem-op index * nObjs + object ID]
	objAccess []int64   // [object ID]
	objBytes  []int64   // [object ID]; globals pre-filled with static size
	heapSeen  []bool    // heap site had at least one malloc

	steps      int64
	maxSteps   int64
	deadline   time.Time
	hasDeadl   bool
	maxBytes   int64
	allocBytes int64
	nextInst   int64
	trace      func(objID int, inst int64, off int64, isStore bool)

	// Observability: counters resolved once by SetObserver, flushed once
	// per Run (never touched in the dispatch loop), so a nil observer
	// costs nothing — pinned by the zero-alloc guard test.
	cSteps, cDispatches, cAlloc    *obs.Counter
	flSteps, flDispatches, flAlloc int64
}

// NewVM prepares a VM for one compiled program, allocating and
// initializing global storage exactly as interp.New does (same instance
// IDs, same initial word values, same initial byte accounting).
func NewVM(p *Program, opts profile.Options) *VM {
	nObjs := len(p.mod.Objects)
	vm := &VM{
		p:         p,
		globals:   make([]*profile.Instance, nObjs),
		blockFreq: make([][]int64, len(p.fns)),
		memCounts: make([]int64, len(p.memOps)*nObjs),
		objAccess: make([]int64, nObjs),
		objBytes:  make([]int64, nObjs),
		heapSeen:  make([]bool, nObjs),
		maxSteps:  opts.MaxSteps,
		deadline:  opts.Deadline,
		hasDeadl:  !opts.Deadline.IsZero(),
		maxBytes:  opts.MaxBytes,
		trace:     opts.TraceMem,
	}
	if vm.maxSteps == 0 {
		vm.maxSteps = profile.DefaultMaxSteps
	}
	for i, fc := range p.fns {
		vm.blockFreq[i] = make([]int64, len(fc.blocks))
	}
	for _, o := range p.mod.Objects {
		if o.Kind != ir.ObjGlobal {
			continue
		}
		vm.globals[o.ID] = profile.NewGlobal(o, vm.nextInst)
		vm.nextInst++
		vm.objBytes[o.ID] = o.Size
		vm.allocBytes += o.Size
	}
	return vm
}

// SetObserver attaches (or with nil detaches) an observer. The three
// profiling counters — interp_steps, interp_dispatches, interp_alloc_bytes
// — are resolved here, once, and flushed at the end of each Run; the
// dispatch loop itself never sees the observer. interp_dispatches counts
// dispatch-loop iterations; today every iteration executes exactly one IR
// operation so it equals interp_steps, but the two are recorded separately
// so superinstruction fusion can change the ratio without breaking
// dashboards.
func (vm *VM) SetObserver(o *obs.Observer) {
	vm.cSteps = o.Counter("interp_steps")
	vm.cDispatches = o.Counter("interp_dispatches")
	vm.cAlloc = o.Counter("interp_alloc_bytes")
}

// flush publishes the counter deltas accumulated since the previous flush.
func (vm *VM) flush() {
	vm.cSteps.Add(vm.steps - vm.flSteps)
	vm.cDispatches.Add(vm.steps - vm.flDispatches)
	vm.cAlloc.Add(vm.allocBytes - vm.flAlloc)
	vm.flSteps, vm.flDispatches, vm.flAlloc = vm.steps, vm.steps, vm.allocBytes
}

// Profile materializes the accumulated observations as an profile.Profile
// keyed by the same IR pointers the tree-walking interpreter uses, so
// every downstream consumer (gdp, rhop, sched, check) is oblivious to
// which engine profiled the program. The result of a completed run is
// DeepEqual-identical to the tree walker's.
func (vm *VM) Profile() *profile.Profile {
	prof := profile.NewProfile()
	prof.Steps = vm.steps
	for fi, fc := range vm.p.fns {
		for bi, n := range vm.blockFreq[fi] {
			if n != 0 {
				prof.BlockFreq[fc.blocks[bi]] = n
			}
		}
	}
	nObjs := len(vm.p.mod.Objects)
	for mi, op := range vm.p.memOps {
		row := vm.memCounts[mi*nObjs : (mi+1)*nObjs]
		var m map[int]int64
		for objID, n := range row {
			if n == 0 {
				continue
			}
			if m == nil {
				m = make(map[int]int64)
				prof.OpObj[op] = m
			}
			m[objID] = n
		}
	}
	for objID, n := range vm.objAccess {
		if n != 0 {
			prof.ObjAccess[objID] = n
		}
	}
	for _, o := range vm.p.mod.Objects {
		if o.Kind == ir.ObjGlobal {
			prof.ObjBytes[o.ID] = vm.objBytes[o.ID]
		} else if vm.heapSeen[o.ID] {
			prof.ObjBytes[o.ID] = vm.objBytes[o.ID]
		}
	}
	return prof
}

// RunMain executes main().
func (vm *VM) RunMain() (profile.Value, error) { return vm.Run("main") }

// Run executes the named function with the given arguments and returns
// its result (zero int for void functions).
func (vm *VM) Run(fn string, args ...profile.Value) (v profile.Value, err error) {
	fi := vm.p.funcIndex(fn)
	if fi < 0 {
		return profile.Value{}, fmt.Errorf("bytecode: no function %q", fn)
	}
	defer vm.flush()
	return vm.exec(fi, args)
}

// errAt wraps a runtime fault with its location. Budget errors bypass
// this so callers can match the typed *profile.BudgetError directly.
func (vm *VM) errAt(fc *fnCode, pc int32, err error) error {
	return fmt.Errorf("bytecode: in %s pc %d: %w", fc.name, pc, err)
}

// grow ensures the register slab covers [0, need).
func (vm *VM) grow(need int32) {
	if int(need) <= len(vm.regs) {
		return
	}
	n := len(vm.regs)*2 + 64
	if n < int(need) {
		n = int(need)
	}
	fresh := make([]profile.Value, n)
	copy(fresh, vm.regs)
	vm.regs = fresh
}

// setupFrame clears the callee's virtual registers and materializes its
// constant pool into the window suffix. Fresh registers read as integer
// zero, exactly like the tree walker's.
func (vm *VM) setupFrame(fc *fnCode, base int32) {
	vm.grow(base + int32(fc.frame))
	win := vm.regs[base : base+int32(fc.frame)]
	for i := 0; i < fc.nRegs; i++ {
		win[i] = profile.Value{}
	}
	copy(win[fc.nRegs:], fc.consts)
}

// exec is the dispatch loop: one flat loop over the whole call tree, with
// an explicit frame stack instead of host recursion.
func (vm *VM) exec(fi int32, args []profile.Value) (profile.Value, error) {
	fc := vm.p.fns[fi]
	if len(args) != fc.nParams {
		return profile.Value{}, fmt.Errorf("bytecode: %s expects %d args, got %d",
			fc.name, fc.nParams, len(args))
	}
	vm.frames = vm.frames[:0]
	var base int32
	vm.setupFrame(fc, base)
	copy(vm.regs[base:], args)
	vm.blockFreq[fi][0]++
	code := fc.code
	regs := vm.regs[base : base+int32(fc.frame)]
	freq := vm.blockFreq[fi]
	var pc int32

	for {
		in := &code[pc]
		vm.steps++
		if vm.steps > vm.maxSteps {
			return profile.Value{}, &profile.BudgetError{Resource: "step", Limit: vm.maxSteps, Fn: fc.name}
		}
		if vm.hasDeadl && vm.steps%profile.DeadlineStride == 0 && time.Now().After(vm.deadline) {
			return profile.Value{}, &profile.BudgetError{Resource: "deadline", Fn: fc.name}
		}
		switch in.op {

		case bcAdd:
			x, y := &regs[in.a], &regs[in.b]
			if x.Kind == profile.ValInt && y.Kind == profile.ValInt {
				regs[in.dst] = profile.IntVal(x.I + y.I)
			} else if x.Kind == profile.ValPtr && y.Kind == profile.ValInt {
				regs[in.dst] = profile.Value{Kind: profile.ValPtr, Inst: x.Inst, Off: x.Off + y.I}
			} else if y.Kind == profile.ValPtr && x.Kind == profile.ValInt {
				regs[in.dst] = profile.Value{Kind: profile.ValPtr, Inst: y.Inst, Off: y.Off + x.I}
			} else {
				return profile.Value{}, vm.errAt(fc, pc, kindErr("add", *x, *y))
			}

		case bcSub:
			x, y := &regs[in.a], &regs[in.b]
			if x.Kind == profile.ValInt && y.Kind == profile.ValInt {
				regs[in.dst] = profile.IntVal(x.I - y.I)
			} else if x.Kind == profile.ValPtr && y.Kind == profile.ValInt {
				regs[in.dst] = profile.Value{Kind: profile.ValPtr, Inst: x.Inst, Off: x.Off - y.I}
			} else if x.Kind == profile.ValPtr && y.Kind == profile.ValPtr {
				if x.Inst != y.Inst {
					return profile.Value{}, vm.errAt(fc, pc,
						fmt.Errorf("subtraction of pointers into different objects"))
				}
				regs[in.dst] = profile.IntVal(x.Off - y.Off)
			} else {
				return profile.Value{}, vm.errAt(fc, pc, kindErr("sub", *x, *y))
			}

		case bcMul, bcDiv, bcRem, bcAnd, bcOr, bcXor, bcShl, bcShr,
			bcCmpLT, bcCmpLE, bcCmpGT, bcCmpGE:
			x, y := &regs[in.a], &regs[in.b]
			if x.Kind != profile.ValInt || y.Kind != profile.ValInt {
				return profile.Value{}, vm.errAt(fc, pc, kindErr(opName(in.op), *x, *y))
			}
			var r int64
			switch in.op {
			case bcMul:
				r = x.I * y.I
			case bcDiv:
				if y.I == 0 {
					return profile.Value{}, vm.errAt(fc, pc, fmt.Errorf("division by zero"))
				}
				r = x.I / y.I
			case bcRem:
				if y.I == 0 {
					return profile.Value{}, vm.errAt(fc, pc, fmt.Errorf("remainder by zero"))
				}
				r = x.I % y.I
			case bcAnd:
				r = x.I & y.I
			case bcOr:
				r = x.I | y.I
			case bcXor:
				r = x.I ^ y.I
			case bcShl:
				r = x.I << (uint64(y.I) & 63)
			case bcShr:
				r = x.I >> (uint64(y.I) & 63)
			case bcCmpLT:
				r = b2i(x.I < y.I)
			case bcCmpLE:
				r = b2i(x.I <= y.I)
			case bcCmpGT:
				r = b2i(x.I > y.I)
			case bcCmpGE:
				r = b2i(x.I >= y.I)
			}
			regs[in.dst] = profile.IntVal(r)

		case bcCmpEQ, bcCmpNE:
			x, y := &regs[in.a], &regs[in.b]
			if x.Kind == profile.ValPtr || y.Kind == profile.ValPtr {
				eq := x.Kind == profile.ValPtr && y.Kind == profile.ValPtr &&
					x.Inst == y.Inst && x.Off == y.Off
				if in.op == bcCmpNE {
					eq = !eq
				}
				regs[in.dst] = profile.IntVal(b2i(eq))
				break
			}
			if x.Kind != profile.ValInt || y.Kind != profile.ValInt {
				return profile.Value{}, vm.errAt(fc, pc, kindErr(opName(in.op), *x, *y))
			}
			if in.op == bcCmpEQ {
				regs[in.dst] = profile.IntVal(b2i(x.I == y.I))
			} else {
				regs[in.dst] = profile.IntVal(b2i(x.I != y.I))
			}

		case bcNeg, bcNot, bcIToF:
			x := &regs[in.a]
			if x.Kind != profile.ValInt {
				return profile.Value{}, vm.errAt(fc, pc, fmt.Errorf("expected int, got %s", x))
			}
			switch in.op {
			case bcNeg:
				regs[in.dst] = profile.IntVal(-x.I)
			case bcNot:
				regs[in.dst] = profile.IntVal(^x.I)
			case bcIToF:
				regs[in.dst] = profile.FloatVal(float64(x.I))
			}

		case bcMov:
			regs[in.dst] = regs[in.a]

		case bcFAdd, bcFSub, bcFMul, bcFDiv,
			bcFCmpEQ, bcFCmpNE, bcFCmpLT, bcFCmpLE, bcFCmpGT, bcFCmpGE:
			x, y := &regs[in.a], &regs[in.b]
			if x.Kind != profile.ValFloat || y.Kind != profile.ValFloat {
				return profile.Value{}, vm.errAt(fc, pc, kindErrF(opName(in.op), *x, *y))
			}
			switch in.op {
			case bcFAdd:
				regs[in.dst] = profile.FloatVal(x.F + y.F)
			case bcFSub:
				regs[in.dst] = profile.FloatVal(x.F - y.F)
			case bcFMul:
				regs[in.dst] = profile.FloatVal(x.F * y.F)
			case bcFDiv:
				regs[in.dst] = profile.FloatVal(x.F / y.F)
			case bcFCmpEQ:
				regs[in.dst] = profile.IntVal(b2i(x.F == y.F))
			case bcFCmpNE:
				regs[in.dst] = profile.IntVal(b2i(x.F != y.F))
			case bcFCmpLT:
				regs[in.dst] = profile.IntVal(b2i(x.F < y.F))
			case bcFCmpLE:
				regs[in.dst] = profile.IntVal(b2i(x.F <= y.F))
			case bcFCmpGT:
				regs[in.dst] = profile.IntVal(b2i(x.F > y.F))
			case bcFCmpGE:
				regs[in.dst] = profile.IntVal(b2i(x.F >= y.F))
			}

		case bcFNeg:
			x := &regs[in.a]
			if x.Kind != profile.ValFloat {
				return profile.Value{}, vm.errAt(fc, pc, fmt.Errorf("expected float, got %s", x))
			}
			regs[in.dst] = profile.FloatVal(-x.F)

		case bcFToI:
			x := &regs[in.a]
			if x.Kind != profile.ValFloat {
				return profile.Value{}, vm.errAt(fc, pc, fmt.Errorf("expected float, got %s", x))
			}
			regs[in.dst] = profile.IntVal(int64(x.F))

		case bcAddr:
			regs[in.dst] = profile.Value{Kind: profile.ValPtr, Inst: vm.globals[in.c]}

		case bcMalloc:
			size := &regs[in.a]
			if size.Kind != profile.ValInt || size.I < 0 {
				return profile.Value{}, vm.errAt(fc, pc, fmt.Errorf("malloc of bad size %s", size))
			}
			vm.allocBytes += size.I
			if vm.maxBytes > 0 && vm.allocBytes > vm.maxBytes {
				return profile.Value{}, &profile.BudgetError{Resource: "byte", Limit: vm.maxBytes, Fn: fc.name}
			}
			words := (size.I + 7) / 8
			inst := &profile.Instance{Obj: vm.p.mod.Objects[in.c], ID: vm.nextInst,
				Words: make([]profile.Value, words)}
			vm.nextInst++
			vm.objBytes[in.c] += size.I
			vm.heapSeen[in.c] = true
			vm.count(in.aux, int(in.c))
			regs[in.dst] = profile.Value{Kind: profile.ValPtr, Inst: inst}

		case bcLoad:
			p := &regs[in.a]
			w, err := deref(p)
			if err != nil {
				return profile.Value{}, vm.errAt(fc, pc, err)
			}
			objID := p.Inst.Obj.ID
			vm.count(in.aux, objID)
			if vm.trace != nil {
				vm.trace(objID, p.Inst.ID, p.Off, false)
			}
			regs[in.dst] = *w

		case bcStore:
			p := &regs[in.a]
			w, err := deref(p)
			if err != nil {
				return profile.Value{}, vm.errAt(fc, pc, err)
			}
			objID := p.Inst.Obj.ID
			vm.count(in.aux, objID)
			if vm.trace != nil {
				vm.trace(objID, p.Inst.ID, p.Off, true)
			}
			*w = regs[in.b]
			pc++
			continue

		case bcBr:
			freq[in.aux]++
			pc = in.a
			continue

		case bcBrCond:
			cond := &regs[in.a]
			if cond.Kind != profile.ValInt {
				return profile.Value{}, vm.errAt(fc, pc, fmt.Errorf("brcond on non-int %s", cond))
			}
			if cond.I != 0 {
				freq[in.dst]++
				pc = in.b
			} else {
				freq[in.aux]++
				pc = in.c
			}
			continue

		case bcCall:
			callee := vm.p.fns[in.aux]
			if len(vm.frames)+2 > profile.MaxCallDepth {
				return profile.Value{}, fmt.Errorf(
					"bytecode: call depth exceeds %d in %s", profile.MaxCallDepth, callee.name)
			}
			newBase := base + int32(fc.frame)
			vm.setupFrame(callee, newBase) // may grow (and move) the slab
			argRegs := fc.argPool[in.a : in.a+in.b]
			for i, r := range argRegs {
				vm.regs[newBase+int32(i)] = vm.regs[base+r]
			}
			vm.frames = append(vm.frames, frame{fi: fi, base: base, pc: pc + 1, retDst: in.dst})
			fi, fc, base, pc = in.aux, callee, newBase, 0
			code = fc.code
			regs = vm.regs[base : base+int32(fc.frame)]
			freq = vm.blockFreq[fi]
			freq[0]++
			continue

		case bcRet:
			var res profile.Value
			if in.a >= 0 {
				res = regs[in.a]
			} else {
				res = profile.IntVal(0)
			}
			if len(vm.frames) == 0 {
				return res, nil
			}
			top := vm.frames[len(vm.frames)-1]
			vm.frames = vm.frames[:len(vm.frames)-1]
			fi, base, pc = top.fi, top.base, top.pc
			fc = vm.p.fns[fi]
			code = fc.code
			regs = vm.regs[base : base+int32(fc.frame)]
			freq = vm.blockFreq[fi]
			if top.retDst >= 0 {
				regs[top.retDst] = res
			}
			continue

		default:
			return profile.Value{}, vm.errAt(fc, pc, fmt.Errorf("bad opcode %d", in.op))
		}
		pc++
	}
}

// count records one dynamic access of object objID by interned memory op
// mi: two flat-array increments, the VM's whole profiling cost per access.
func (vm *VM) count(mi int32, objID int) {
	vm.memCounts[int(mi)*len(vm.p.mod.Objects)+objID]++
	vm.objAccess[objID]++
}

// deref resolves a pointer value to its storage word with the same
// alignment and bounds checks as the tree walker.
func deref(p *profile.Value) (*profile.Value, error) {
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

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func kindErr(op string, x, y profile.Value) error {
	if x.Kind != profile.ValInt {
		return fmt.Errorf("%s: expected int, got %s", op, x)
	}
	return fmt.Errorf("%s: expected int, got %s", op, y)
}

func kindErrF(op string, x, y profile.Value) error {
	if x.Kind != profile.ValFloat {
		return fmt.Errorf("%s: expected float, got %s", op, x)
	}
	return fmt.Errorf("%s: expected float, got %s", op, y)
}

// opName names a bytecode opcode for diagnostics.
func opName(op uint8) string {
	names := map[uint8]string{
		bcMul: "mul", bcDiv: "div", bcRem: "rem", bcAnd: "and", bcOr: "or",
		bcXor: "xor", bcShl: "shl", bcShr: "shr", bcCmpEQ: "cmpeq",
		bcCmpNE: "cmpne", bcCmpLT: "cmplt", bcCmpLE: "cmple",
		bcCmpGT: "cmpgt", bcCmpGE: "cmpge", bcFAdd: "fadd", bcFSub: "fsub",
		bcFMul: "fmul", bcFDiv: "fdiv", bcFCmpEQ: "fcmpeq", bcFCmpNE: "fcmpne",
		bcFCmpLT: "fcmplt", bcFCmpLE: "fcmple", bcFCmpGT: "fcmpgt", bcFCmpGE: "fcmpge",
	}
	if n, ok := names[op]; ok {
		return n
	}
	return fmt.Sprintf("op%d", op)
}
