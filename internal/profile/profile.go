// Package profile defines what the profiler hands the partitioners: the
// runtime values a program computes, the Profile (dynamic block
// frequencies, per-operation object access counts, heap allocation sizes),
// the run Options and the typed BudgetError, plus the runtime bounds every
// execution engine applies.
//
// The production profiler is the bytecode VM (internal/bytecode); the
// tree-walking executor in internal/interp, kept as the VM's test oracle,
// shares these types and bounds so the two engines stay interchangeable.
package profile

import (
	"fmt"
	"time"

	"mcpart/internal/ir"
)

// Runtime bounds shared by every execution engine.
const (
	// DefaultMaxSteps is the step budget when Options.MaxSteps is 0.
	DefaultMaxSteps = 50_000_000
	// DeadlineStride is how many steps run between wall-clock checks:
	// frequent enough to stop promptly, rare enough that time.Now stays
	// off the hot path.
	DeadlineStride = 1 << 16
	// MaxCallDepth bounds recursion so runaway programs fail cleanly
	// instead of exhausting the host stack.
	MaxCallDepth = 10000
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

// NewGlobal allocates the storage of global o as instance id: its initial
// values, then zero words of o's kind.
func NewGlobal(o *ir.Object, id int64) *Instance {
	inst := &Instance{Obj: o, ID: id, Words: make([]Value, o.Words())}
	if !o.IsFloat {
		for i, v := range o.Init {
			inst.Words[i] = IntVal(v)
		}
		return inst
	}
	for i := range inst.Words {
		inst.Words[i] = FloatVal(0)
	}
	for i, f := range o.FloatInit {
		inst.Words[i] = FloatVal(f)
	}
	return inst
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

// Error keeps the "interp:" prefix of the engine that introduced the type:
// gdpd's wire errors carry these texts verbatim.
func (e *BudgetError) Error() string {
	if e.Resource == "deadline" {
		return fmt.Sprintf("interp: deadline exceeded in %s", e.Fn)
	}
	return fmt.Sprintf("interp: %s budget of %d exceeded in %s", e.Resource, e.Limit, e.Fn)
}

// Options configures a run.
type Options struct {
	// MaxSteps bounds execution; 0 means DefaultMaxSteps.
	MaxSteps int64
	// Deadline aborts execution once the wall clock passes it (checked
	// every DeadlineStride steps); the zero time means no deadline.
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
