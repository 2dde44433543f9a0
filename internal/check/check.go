// Package check is the independent, schedule-level validator of the
// evaluation pipeline. It re-derives the paper's machine-model constraints
// from first principles — object homes, §3.4 locked memory placement,
// per-cluster function-unit occupancy, the 1-move-per-cycle bus, operand
// ready times, and the profile-weighted cycle accounting — and verifies
// that a scheme's reported Result actually satisfies them.
//
// check deliberately sits below internal/eval (eval imports check, never
// the reverse) and shares none of the evaluation engine's bookkeeping: the
// schedules it inspects are re-materialized through the scheduler's
// dependence builder (sched.MaterializeFunc) and every resource count,
// ready time, and cycle sum is recomputed here from the raw slots. A bug
// in the memoization cache, the parallel fan-out, or the partitioners'
// incremental estimates therefore cannot hide from the validator — it
// would surface as a Violation.
package check

import (
	"fmt"
	"strings"

	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/profile"
	"mcpart/internal/rhop"
	"mcpart/internal/sched"
)

// Class names one invariant family the validator enforces. Every Violation
// belongs to exactly one class, and the mutation tests in this package
// demonstrate a corrupted result caught per class.
type Class string

// The invariant classes.
const (
	// ClassHome: every data object is homed exactly once, on an existing
	// cluster (the data map covers all objects, each home in range).
	ClassHome Class = "home"
	// ClassCapacity: per-cluster scratchpad bytes stay within the
	// machine's capacity share plus tolerance (enforced only when the
	// result promises balance — GDP — and the machine declares capacities).
	ClassCapacity Class = "capacity"
	// ClassLock: §3.4 — every load/store is locked to its object's home
	// cluster and the computation partition honors the lock.
	ClassLock Class = "lock"
	// ClassAssign: every op is assigned to an existing cluster that has at
	// least one unit of the op's kind, and the materialized schedule
	// issues it there.
	ClassAssign Class = "assign"
	// ClassFU: per-cycle, per-cluster function-unit occupancy within the
	// machine description.
	ClassFU Class = "fu"
	// ClassBus: at most MoveBandwidth intercluster moves issued per cycle.
	ClassBus Class = "bus"
	// ClassReady: no operation issues before its operands are ready under
	// the declared latencies and inserted moves.
	ClassReady Class = "ready"
	// ClassAccount: the reported cycle and move totals equal the
	// independently recomputed Σ(block length × profile weight) plus
	// loop-entry hoisted-move costs.
	ClassAccount Class = "accounting"
)

// Violation is one broken invariant, attributable to a function and block.
type Violation struct {
	Class  Class
	Func   string // empty for module-level violations (homes, capacity)
	Block  int    // -1 when not block-scoped
	Detail string
}

func (v Violation) String() string {
	where := ""
	if v.Func != "" {
		where = " in " + v.Func
		if v.Block >= 0 {
			where += fmt.Sprintf(" b%d", v.Block)
		}
	}
	return fmt.Sprintf("[%s]%s: %s", v.Class, where, v.Detail)
}

// Error aggregates the violations found while validating one result.
type Error struct {
	Scheme     string
	Violations []Violation
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s result violates %d invariant(s)", e.Scheme, len(e.Violations))
	for i, v := range e.Violations {
		if i == 4 && len(e.Violations) > 5 {
			fmt.Fprintf(&b, "; ... %d more", len(e.Violations)-i)
			break
		}
		b.WriteString("; " + v.String())
	}
	return b.String()
}

// Has reports whether the error contains a violation of the given class.
func (e *Error) Has(c Class) bool {
	for _, v := range e.Violations {
		if v.Class == c {
			return true
		}
	}
	return false
}

// Result is the scheme outcome under validation, decoupled from
// eval.Result so eval can depend on this package.
type Result struct {
	Scheme  string
	DataMap []int              // object ID -> home cluster; nil for Unified
	Assign  map[*ir.Func][]int // op ID -> cluster, per function
	Locks   map[*ir.Func]rhop.Locks
	Cycles  int64
	Moves   int64
	// Groups are the data partitioner's indivisible must-alias object
	// merge groups, when known; they set the capacity bound's unit slack.
	// nil falls back to treating every object as its own unit.
	Groups [][]int
	// CheckCapacity enables the scratchpad-capacity invariant. Only GDP
	// promises balanced homes: Profile Max's threshold rule deliberately
	// forces overflow objects onto loaded clusters and Naïve ignores
	// balance entirely, so capacity is a per-scheme promise, not a
	// universal one.
	CheckCapacity bool
}

// Options tunes the validator.
type Options struct {
	// MemTol is the tolerated relative overshoot of a cluster's scratchpad
	// share; zero selects 0.10, matching the partitioner's default balance
	// tolerance (gdp.Options.MemTol).
	MemTol float64
}

func (o Options) memTol() float64 {
	if o.MemTol == 0 {
		return 0.10
	}
	return o.MemTol
}

// maxViolations caps how many violations are collected before validation
// stops.
const maxViolations = 32

// Recorder accumulates violations up to maxViolations. Validate drives one
// internally; mutation tests construct their own (NewRecorder) to feed
// corrupted schedules straight into VerifyBlock.
type Recorder struct {
	vs []Violation
}

// NewRecorder returns an empty violation accumulator.
func NewRecorder() *Recorder { return &Recorder{} }

// Violations returns the violations accumulated so far.
func (v *Recorder) Violations() []Violation { return v.vs }

// Has reports whether any accumulated violation has the given class.
func (v *Recorder) Has(c Class) bool {
	for _, violation := range v.vs {
		if violation.Class == c {
			return true
		}
	}
	return false
}

func (v *Recorder) add(class Class, fn string, block int, format string, args ...any) bool {
	if v.full() {
		return false
	}
	v.vs = append(v.vs, Violation{Class: class, Func: fn, Block: block, Detail: fmt.Sprintf(format, args...)})
	return true
}

func (v *Recorder) full() bool { return len(v.vs) >= maxViolations }

// Validate checks r against the machine model from first principles and
// returns a *Error listing every violated invariant (nil if the result is
// clean). mod and prof must be the module and profile the result was
// computed from. The module-level invariants (homes, capacity, the
// program's cycle and move totals) are checked here; every function goes
// through the same per-function check ValidateFunc runs.
func Validate(mod *ir.Module, prof *profile.Profile, cfg *machine.Config, r Result, opts Options) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	v := NewRecorder()

	checkHomes(v, mod, prof, cfg, r, opts)
	// Without recorded locks there is nothing to check memory ops against.
	dm := r.DataMap
	if r.Locks == nil {
		dm = nil
	}
	var cycles, moves int64
	complete := true // every function's schedule was re-derived
	for _, f := range mod.Funcs {
		asg, ok := r.Assign[f]
		if !ok {
			v.add(ClassAssign, f.Name, -1, "no cluster assignment for function")
			complete = false
			continue
		}
		fc, fm, ok := validateFunc(v, f, asg, r.Locks[f], dm, cfg, prof)
		if v.full() {
			break
		}
		if !ok {
			complete = false
			continue
		}
		cycles += fc
		moves += fm
	}
	if complete && !v.full() {
		if cycles != r.Cycles {
			v.add(ClassAccount, "", -1, "reported %d cycles, recomputed %d", r.Cycles, cycles)
		}
		if moves != r.Moves {
			v.add(ClassAccount, "", -1, "reported %d moves, recomputed %d", r.Moves, moves)
		}
	}
	if len(v.vs) == 0 {
		return nil
	}
	return &Error{Scheme: r.Scheme, Violations: v.vs}
}

// ValidateFunc checks one function's computation partition asg against the
// machine model: every op on an existing cluster with a unit of its kind,
// §3.4 locks honoring the data map dm (dm nil means unified memory: no
// homes, no lock checks), and every re-materialized block schedule slot
// by slot. It returns the independently recomputed profile-weighted cycle
// and move totals, which a caller compares against the costs it reported,
// and a *Error (with an empty Scheme, for the caller to fill in) listing
// the violations, or nil. Validate runs this same check for every function
// of a module.
func ValidateFunc(f *ir.Func, asg []int, locks rhop.Locks, dm []int, cfg *machine.Config, prof *profile.Profile) (cycles, moves int64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	v := NewRecorder()
	cycles, moves, _ = validateFunc(v, f, asg, locks, dm, cfg, prof)
	if len(v.vs) > 0 {
		return cycles, moves, &Error{Violations: v.vs}
	}
	return cycles, moves, nil
}

// validateFunc is the per-function check behind Validate and ValidateFunc.
// ok reports whether f's schedules were re-derived, i.e. whether cycles and
// moves are its complete recomputed totals.
func validateFunc(v *Recorder, f *ir.Func, asg []int, locks rhop.Locks, dm []int, cfg *machine.Config, prof *profile.Profile) (cycles, moves int64, ok bool) {
	if len(asg) < f.NOps {
		v.add(ClassAssign, f.Name, -1, "assignment covers %d of %d ops", len(asg), f.NOps)
		return 0, 0, false
	}
	assignable := checkAssignment(v, f, asg, cfg)
	checkLocks(v, f, asg, locks, dm)
	if v.full() || !assignable {
		// The scheduler cannot materialize an unexecutable assignment;
		// the assign violations above already condemn the result.
		return 0, 0, false
	}
	cycles, moves = checkSchedules(v, f, asg, cfg, prof)
	return cycles, moves, true
}

// checkHomes verifies the data map: full coverage, homes in range, and
// (when the result promises balance) per-cluster bytes within the
// machine's scratchpad shares.
func checkHomes(v *Recorder, mod *ir.Module, prof *profile.Profile, cfg *machine.Config, r Result, opts Options) {
	if r.DataMap == nil {
		return // unified memory: no homes to check
	}
	k := cfg.NumClusters()
	if len(r.DataMap) != len(mod.Objects) {
		v.add(ClassHome, "", -1, "data map covers %d of %d objects", len(r.DataMap), len(mod.Objects))
		return
	}
	loaded := make([]int64, k)
	var total int64
	for _, o := range mod.Objects {
		home := r.DataMap[o.ID]
		if home < 0 || home >= k {
			v.add(ClassHome, "", -1, "object %d (%s) homed on cluster %d of %d", o.ID, o.Name, home, k)
			continue
		}
		b := objBytes(o, prof)
		loaded[home] += b
		total += b
	}
	fractions := cfg.MemFractions()
	if !r.CheckCapacity || fractions == nil || total == 0 {
		return
	}
	// The balance bound is the classic multilevel-partitioning guarantee:
	// a cluster may exceed its tolerated share by at most the heaviest
	// indivisible unit, because that unit has to live somewhere whole. The
	// units are the partitioner's must-alias merge groups when the result
	// carries them, single objects otherwise.
	var maxUnit int64
	if r.Groups != nil {
		for _, grp := range r.Groups {
			var gb int64
			for _, objID := range grp {
				if objID >= 0 && objID < len(mod.Objects) {
					gb += objBytes(mod.Objects[objID], prof)
				}
			}
			if gb > maxUnit {
				maxUnit = gb
			}
		}
	} else {
		for _, o := range mod.Objects {
			if b := objBytes(o, prof); b > maxUnit {
				maxUnit = b
			}
		}
	}
	for cl := 0; cl < k; cl++ {
		limit := int64(float64(total)*fractions[cl]*(1+opts.memTol())) + maxUnit
		if loaded[cl] > limit {
			v.add(ClassCapacity, "", -1,
				"cluster %d holds %d bytes, capacity share %d (+%.0f%% tolerance + %d-byte unit slack)",
				cl, loaded[cl], limit, 100*opts.memTol(), maxUnit)
		}
	}
}

// objBytes is the validator's byte size of one object: the profiled
// allocation total when available (heap sites), the static size otherwise —
// the same accounting the data partitioner balances.
func objBytes(o *ir.Object, prof *profile.Profile) int64 {
	if pb, ok := prof.ObjBytes[o.ID]; ok && pb > 0 {
		return pb
	}
	return o.Size
}

// checkAssignment verifies every op lands on an existing cluster with at
// least one unit of its kind, reporting whether the assignment is fully
// executable. This re-derives sched.CheckAssignable rather than calling
// it, so the validator shares no logic with the scheduler it is auditing.
func checkAssignment(v *Recorder, f *ir.Func, asg []int, cfg *machine.Config) bool {
	k := cfg.NumClusters()
	ok := true
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			c := asg[op.ID]
			if c < 0 || c >= k {
				ok = false
				if !v.add(ClassAssign, f.Name, b.ID, "op %d (%s) on cluster %d of %d", op.ID, op.Opcode, c, k) {
					return false
				}
				continue
			}
			if kind := machine.KindOf(op.Opcode); cfg.Units(c, kind) == 0 {
				ok = false
				if !v.add(ClassAssign, f.Name, b.ID, "op %d (%s) on cluster %d which has no %s units",
					op.ID, op.Opcode, c, kind) {
					return false
				}
			}
		}
	}
	return ok
}

// checkLocks verifies §3.4: every memory operation with a known access set
// is locked to a home cluster of an object it may access, and the
// computation partition executes it there. Ops whose access set spans a
// single home must sit exactly on that home.
func checkLocks(v *Recorder, f *ir.Func, asg []int, locks rhop.Locks, dm []int) {
	if len(dm) == 0 {
		return
	}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if !op.Opcode.IsMem() || len(op.MayAccess) == 0 {
				continue
			}
			// The home clusters this op's accessible objects live on.
			homes := map[int]bool{}
			for _, objID := range op.MayAccess {
				if objID >= 0 && objID < len(dm) {
					homes[dm[objID]] = true
				}
			}
			lock, locked := locks[op.ID]
			if !locked {
				if !v.add(ClassLock, f.Name, b.ID, "memory op %d (%s) has no lock", op.ID, op.Opcode) {
					return
				}
				continue
			}
			if !homes[lock] {
				if !v.add(ClassLock, f.Name, b.ID, "memory op %d (%s) locked to cluster %d, not a home of its objects %v",
					op.ID, op.Opcode, lock, op.MayAccess) {
					return
				}
				continue
			}
			if asg[op.ID] != lock {
				if !v.add(ClassLock, f.Name, b.ID, "memory op %d (%s) locked to cluster %d but assigned to %d",
					op.ID, op.Opcode, lock, asg[op.ID]) {
					return
				}
			}
		}
	}
}

// materializeFunc re-derives a function's block schedules. The mutation
// tests swap in a corrupting wrapper (export_test.go) to drive damaged
// schedules through ValidateFunc.
var materializeFunc = sched.MaterializeFunc

// checkSchedules re-materializes every block schedule of f and verifies it
// slot by slot, returning the independently recomputed profile-weighted
// cycle and move totals.
func checkSchedules(v *Recorder, f *ir.Func, asg []int, cfg *machine.Config, prof *profile.Profile) (cycles, moves int64) {
	lc := sched.NewLoopCtx(f)
	schedules, hoisted := materializeFunc(f, asg, lc, cfg, prof.Freq)
	for _, b := range f.Blocks {
		bs := schedules[b.ID]
		length, blockMoves := VerifyBlock(v, b, bs, asg, cfg)
		if freq := prof.Freq(b); freq > 0 {
			cycles += freq * int64(length)
			moves += freq * int64(blockMoves)
		}
		if v.full() {
			return cycles, moves
		}
	}
	// Hoisted loop-invariant copies cost one move and one cycle per loop
	// entry (the scheduler's accounting; re-derived from the loop context).
	for _, h := range hoisted {
		entries := lc.EntryFreq(h.Loop, prof.Freq)
		cycles += entries
		moves += entries
	}
	return cycles, moves
}

// moveLatency re-derives the per-hop move cost from the machine topology
// from first principles. It deliberately does not call cfg.MoveLat — the
// whole point is to catch a bug in the production distance computation, so
// the ring arithmetic, the mesh Manhattan distance, and the matrix lookup
// are reimplemented here.
func moveLatency(cfg *machine.Config, a, b int) int {
	if a == b {
		return 0
	}
	switch cfg.Topology {
	case machine.TopologyRing:
		n := cfg.NumClusters()
		fwd := ((b-a)%n + n) % n
		if back := n - fwd; back < fwd {
			fwd = back
		}
		return cfg.MoveLatency * fwd
	case machine.TopologyMesh:
		cols := cfg.MeshCols
		rowDist := a/cols - b/cols
		if rowDist < 0 {
			rowDist = -rowDist
		}
		colDist := a%cols - b%cols
		if colDist < 0 {
			colDist = -colDist
		}
		return cfg.MoveLatency * (rowDist + colDist)
	case machine.TopologyMatrix:
		return cfg.LatencyMatrix[a][b]
	default:
		return cfg.MoveLatency
	}
}

// VerifyBlock checks one materialized block schedule against the machine
// model, recording violations into v, and returns the independently
// recomputed schedule length and move count. Exposed (with Recorder) so
// mutation tests can corrupt a BlockSchedule directly and watch each
// invariant class fire; Validate uses it on schedules it materializes
// itself.
func VerifyBlock(v *Recorder, b *ir.Block, bs *sched.BlockSchedule, asg []int, cfg *machine.Config) (length, moveCount int) {
	length = 1
	if bs == nil {
		v.add(ClassAccount, b.Func.Name, b.ID, "no schedule materialized")
		return length, 0
	}
	fn := b.Func.Name
	// Structural coverage: the first len(b.Ops) slots are the block's ops
	// in program order (the documented BlockSchedule layout); moves follow.
	if len(bs.Slots) < len(b.Ops) {
		v.add(ClassAssign, fn, b.ID, "schedule has %d slots for %d ops", len(bs.Slots), len(b.Ops))
		return length, 0
	}
	type cell struct {
		cycle, cluster int
		kind           machine.FUKind
	}
	occupancy := map[cell]int{}
	bus := map[int]int{}
	k := cfg.NumClusters()
	for si, s := range bs.Slots {
		if s.Cycle < 0 {
			v.add(ClassReady, fn, b.ID, "slot %d issues at negative cycle %d", si, s.Cycle)
			continue
		}
		if s.Cluster < 0 || s.Cluster >= k {
			v.add(ClassAssign, fn, b.ID, "slot %d on cluster %d of %d", si, s.Cluster, k)
			continue
		}
		if si < len(b.Ops) {
			op := b.Ops[si]
			if s.Op != op {
				v.add(ClassAssign, fn, b.ID, "slot %d does not carry op %d in program order", si, op.ID)
				continue
			}
			if s.Cluster != asg[op.ID] {
				v.add(ClassAssign, fn, b.ID, "op %d (%s) issued on cluster %d, assigned to %d",
					op.ID, op.Opcode, s.Cluster, asg[op.ID])
			}
			if want := machine.KindOf(op.Opcode); s.Kind != want {
				v.add(ClassAssign, fn, b.ID, "op %d (%s) issued as %s, is %s", op.ID, op.Opcode, s.Kind, want)
			}
			if want := machine.Latency(op.Opcode); s.Lat != want {
				v.add(ClassReady, fn, b.ID, "op %d (%s) scheduled with latency %d, machine says %d",
					op.ID, op.Opcode, s.Lat, want)
			}
		} else if !s.IsMove {
			v.add(ClassAssign, fn, b.ID, "slot %d past the block's %d ops is not a move", si, len(b.Ops))
		}
		if s.IsMove {
			switch {
			case s.To < 0 || s.To >= k:
				v.add(ClassAssign, fn, b.ID, "move slot %d targets cluster %d of %d", si, s.To, k)
			case s.To == s.Cluster:
				v.add(ClassAssign, fn, b.ID, "move slot %d targets its own cluster %d", si, s.To)
			default:
				if want := moveLatency(cfg, s.Cluster, s.To); s.Lat != want {
					v.add(ClassReady, fn, b.ID, "move slot %d (%d->%d) scheduled with latency %d, topology says %d",
						si, s.Cluster, s.To, s.Lat, want)
				}
			}
		}
		occupancy[cell{s.Cycle, s.Cluster, s.Kind}]++
		if s.IsMove {
			bus[s.Cycle]++
			moveCount++
		}
		// Ready times: the consumer may not issue before every predecessor's
		// result is available.
		for _, p := range s.Preds {
			if p.From < 0 || p.From >= len(bs.Slots) {
				v.add(ClassReady, fn, b.ID, "slot %d depends on out-of-range slot %d", si, p.From)
				continue
			}
			if ready := bs.Slots[p.From].Cycle + p.Lat; s.Cycle < ready {
				v.add(ClassReady, fn, b.ID, "slot %d issues at cycle %d before operand ready at %d",
					si, s.Cycle, ready)
			}
		}
		if end := s.Cycle + s.Lat; end > length {
			length = end
		}
		if v.full() {
			return length, moveCount
		}
	}
	for c, n := range occupancy {
		if units := cfg.Units(c.cluster, c.kind); n > units {
			v.add(ClassFU, fn, b.ID, "cycle %d cluster %d issues %d %s ops on %d units",
				c.cycle, c.cluster, n, c.kind, units)
		}
	}
	for cyc, n := range bus {
		if n > cfg.MoveBandwidth {
			v.add(ClassBus, fn, b.ID, "cycle %d issues %d intercluster moves, bandwidth %d",
				cyc, n, cfg.MoveBandwidth)
		}
	}
	if bs.Length != length {
		v.add(ClassAccount, fn, b.ID, "schedule reports length %d, slots imply %d", bs.Length, length)
	}
	return length, moveCount
}
