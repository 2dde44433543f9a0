package eval

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mcpart/internal/check"
	"mcpart/internal/gdp"
	"mcpart/internal/machine"
	"mcpart/internal/parallel"
	"mcpart/internal/sched"

	"mcpart/internal/ir"
)

// This file implements the Gray-code delta sweep behind Exhaustive.
//
// A program's cycle count is by definition the sum of per-function
// sched FuncCycles, and a function's locks — hence its partition and cycle
// cost — depend only on the data map projected onto its touched-object set.
// So instead of evaluating 2^n masks through the whole-module pipeline
// (RunWithDataMap), the sweep (1) tabulates each function's cost for each
// of its at most 2^t reachable lock signatures, then (2) enumerates the
// masks in reflected Gray-code order, where consecutive masks flip exactly
// one object: only the functions touching the flipped object change table
// index, and the program total moves by an exact integer delta. The point values are
// byte-identical to evaluating each mask through RunWithDataMap — both are
// the same sums of the same memoized per-function results — which
// TestDeltaSweepMatchesFull pins against the tests' per-mask oracle across
// benchmarks, latencies and worker counts.
//
// Phase 1 computes per-signature results through the per-function steps
// the scheme runs use (funcLocks and funcSteps, under the "locks", "part"
// and "sched" memo keys), so the in-memory cache and the persistent
// artifact store stay fully shared with them. Each function's table gets
// one funcSteps, so its partitioner's region memo serves every signature.
//
// Validation decomposes the same way the cost does. Under
// Options.Validate phase 1 runs the independent validator
// (check.ValidateFunc) once per table entry, right after its partition and
// schedule cost are known, and phase 2 checks every enumerated point's
// program-level invariants: the mask homes every object on an existing
// cluster, and its cycles and moves equal the validated entries its own
// digits select, summed afresh rather than read off the delta state.
// Options.Inject is consulted per table entry at the "partition", "sched"
// and "validate" stages; an entry's failure names a mask that reaches it.
//
// Phase 2 parallelism splits the Gray sequence into contiguous chunks, one
// delta-state per worker, each seeded in O(n + #functions) at its chunk
// start; points land in a shared slice at disjoint mask indices and are
// stitched back in mask order, so every worker count produces identical
// results.

// costTable is one function's cost for every reachable projection of the
// data map onto its touched objects. Digit i (base k, the cluster count)
// of a signature index is the home cluster of objs[i] — a bitmask at k=2.
// On cluster-symmetric 2-cluster machines the sweep only enumerates
// canonical (object 0 on cluster 0) masks, so signatures homing object 0
// elsewhere are unreachable and stay zero.
type costTable struct {
	f    *ir.Func
	objs []int
	k    int
	cost []sched.Cost
}

// objRef locates one function's table digit for an object.
type objRef struct {
	ti  int // index into tables
	bit int // digit position within the table signature
}

// tableStats carries one function's table plus its memo telemetry out of
// the parallel build.
type tableStats struct {
	table     costTable
	partHits  int
	schedHits int
}

// chunkStats aggregates one Gray-chunk's telemetry: delta-advanced masks,
// per-function table updates, and the summed cycle/move values of the
// enumerated points (the same totals RunWithDataMap would fold into the
// observability registry one mask at a time).
type chunkStats struct {
	delta  int64
	funcs  int64
	cycles int64
	moves  int64
}

// sweepErr wraps a sweep failure as a CellError naming the benchmark and
// the Fixed scheme; failures already attributed to a mask pass through.
func sweepErr(c *Compiled, err error) error {
	var ce *CellError
	if errors.As(err, &ce) {
		return err
	}
	return &CellError{Bench: c.Name, Scheme: SchemeFixed, Err: err}
}

// sigOf is the signature mask selects in t: mask's digits at t's objects.
func (t *costTable) sigOf(mask uint64, rad *radix) int {
	sig := 0
	for i, o := range t.objs {
		sig += rad.digit(mask, o) * int(rad.pow[i])
	}
	return sig
}

// sigMask is a mapping mask that reaches signature sig of t: sig's digits
// at t's objects, cluster 0 everywhere else.
func (t *costTable) sigMask(sig int, rad *radix) uint64 {
	var mask uint64
	for i, o := range t.objs {
		mask += uint64(rad.digit(uint64(sig), i)) * rad.pow[o]
	}
	return mask
}

// pointCost sums the table entries the mapping mask selects, reading each
// function's signature straight from mask's digits.
func pointCost(tables []costTable, rad *radix, mask uint64) (cycles, moves int64) {
	for ti := range tables {
		cost := tables[ti].cost[tables[ti].sigOf(mask, rad)]
		cycles += cost.Cycles
		moves += cost.Moves
	}
	return cycles, moves
}

// checkPoint validates one reported mapping point at the program level:
// mask must lie inside the n-object mapping space (every object homed on
// one of the k clusters), and cycles and moves must equal pointCost over
// the validated tables. A failure is a CellError naming mask.
func (o Options) checkPoint(c *Compiled, tables []costTable, rad *radix, n int, mask uint64, cycles, moves int64) error {
	var vs []check.Violation
	if mask >= rad.pow[n] {
		vs = append(vs, check.Violation{Class: check.ClassHome, Block: -1,
			Detail: fmt.Sprintf("mask %#x homes an object beyond the %d objects on %d clusters", mask, n, rad.k)})
	} else {
		wantCycles, wantMoves := pointCost(tables, rad, mask)
		vs = appendAccount(vs, "", cycles, wantCycles, moves, wantMoves)
	}
	if vs == nil {
		return nil
	}
	err := o.countViolations(&check.Error{Scheme: string(SchemeFixed), Violations: vs})
	return &CellError{Bench: c.Name, Scheme: SchemeFixed, Mask: mask, HasMask: true, Err: err}
}

// buildCostTables runs phase 1: one cost table per function, built through
// the standard memoized per-function pipeline (locks → partition →
// schedule cost → validation under opts.Validate), fanned across workers
// function-by-function.
func buildCostTables(ctx context.Context, c *Compiled, cfg *machine.Config,
	opts Options, rad *radix, canon bool, n int, res *Result) ([]costTable, error) {

	items, err := parallel.MapStage(ctx, "sweep_tables", len(c.Mod.Funcs), opts.Workers,
		func(_ context.Context, fi int) (tableStats, error) {
			f := c.Mod.Funcs[fi]
			objs := c.touched[f]
			ts := tableStats{table: costTable{f: f, objs: objs, k: rad.k, cost: make([]sched.Cost, rad.count(len(objs)))}}
			// Canonical masks pin object 0 to cluster 0, so signatures
			// placing it elsewhere can never be asked for.
			fixed0 := canon && len(objs) > 0 && objs[0] == 0
			steps := newFuncSteps(c, cfg, opts)
			dm := make(gdp.DataMap, n)
			// fill computes the entry for signature sig, whose homes dm holds.
			fill := func(sig int) error {
				locks, err := c.funcLocks(f, dm)
				if err != nil {
					return err
				}
				if err := opts.inject(SchemeFixed, "partition"); err != nil {
					return fmt.Errorf("partition: %w", err)
				}
				asg, hit, err := steps.partition(f, dm, locks)
				if err != nil {
					return err
				}
				if hit {
					ts.partHits++
				}
				if err := opts.inject(SchemeFixed, "sched"); err != nil {
					return fmt.Errorf("schedule: %w", err)
				}
				cost, hit, err := steps.cycles(f, asg)
				if err != nil {
					return err
				}
				if hit {
					ts.schedHits++
				}
				ts.table.cost[sig] = cost
				return opts.validateEntry(c, cfg, f, asg, locks, dm, cost)
			}
			for sig := range ts.table.cost {
				if fixed0 && sig%rad.k != 0 {
					continue
				}
				if err := opts.ctxErr(); err != nil {
					return ts, err
				}
				for i, o := range objs {
					dm[o] = rad.digit(uint64(sig), i)
				}
				if err := fill(sig); err != nil {
					return ts, &CellError{Bench: c.Name, Scheme: SchemeFixed, Mask: ts.table.sigMask(sig, rad), HasMask: true, Err: err}
				}
			}
			return ts, nil
		})
	if err != nil {
		return nil, err
	}
	tables := make([]costTable, len(items))
	for i, ts := range items {
		tables[i] = ts.table
		res.MemoPartitionHits += ts.partHits
		res.MemoScheduleHits += ts.schedHits
	}
	return tables, nil
}

// sweepPoints runs the delta sweep end to end and returns the full point
// slice (mirrored odd masks included on symmetric machines), identical to
// what evaluating every mask through RunWithDataMap produces. outer is the
// ExhaustiveCtx-level Options; one SchemeFixed observability scope wraps
// the whole sweep, folding the summed eval_cycles/eval_moves over the
// enumerated points and the logical DetailedRuns accounting.
func sweepPoints(ctx context.Context, c *Compiled, cfg *machine.Config, outer Options, sp *sweepSpace) (points []MappingPoint, err error) {
	rad, n, canon := sp.rad, sp.n, sp.canon
	opts, done := beginRun(c, SchemeFixed, outer)
	res := &Result{Scheme: SchemeFixed}
	defer func() {
		if err != nil {
			err = sweepErr(c, err)
			done(nil, err)
			return
		}
		done(res, nil)
	}()

	start := time.Now()
	tables, err := buildCostTables(ctx, c, cfg, opts, rad, canon, n, res)
	if err != nil {
		return nil, err
	}
	res.PartitionTime = time.Since(start)

	objFuncs := make([][]objRef, n)
	for ti := range tables {
		for bit, o := range tables[ti].objs {
			objFuncs[o] = append(objFuncs[o], objRef{ti: ti, bit: bit})
		}
	}

	// Gray sequence geometry: on symmetric 2-cluster machines enumerate
	// the 2^(n-1) canonical (even) masks — index i maps to gray(i) shifted
	// over the pinned object-0 bit, and step i advances object tz(i)+1 —
	// then mirror the odd complements. Every other machine enumerates all
	// k^n masks through the modular base-k Gray sequence, where step i
	// advances the digit at the count of i's trailing zero base-k digits
	// by +1 mod k.
	seqLen := rad.count(n)
	shift := uint(0)
	if canon {
		seqLen = 1 << uint(n-1)
		shift = 1
	}
	maskAt := func(i uint64) uint64 {
		if canon {
			return rad.grayAt(i, n-1) << 1
		}
		return rad.grayAt(i, n)
	}

	points = make([]MappingPoint, rad.count(n))
	chunks := parallel.Workers(opts.Workers)
	if chunks > seqLen {
		chunks = seqLen
	}
	chunkLen := (seqLen + chunks - 1) / chunks
	stats, err := parallel.MapStage(ctx, "sweep", chunks, opts.Workers,
		func(_ context.Context, ci int) (chunkStats, error) {
			var st chunkStats
			lo, hi := ci*chunkLen, (ci+1)*chunkLen
			if hi > seqLen {
				hi = seqLen
			}
			if lo >= hi {
				return st, nil
			}
			// Seed the delta state at the chunk's first mask.
			cur := maskAt(uint64(lo))
			curDigit := make([]int, n)
			clusterBytes := make([]int64, rad.k)
			sigIdx := make([]int, len(tables))
			for ti := range tables {
				sigIdx[ti] = tables[ti].sigOf(cur, rad)
			}
			cycles, moves := pointCost(tables, rad, cur)
			for j := 0; j < n; j++ {
				curDigit[j] = rad.digit(cur, j)
				clusterBytes[curDigit[j]] += sp.bytes[j]
			}
			emit := func() error {
				points[cur] = MappingPoint{Mask: cur, Cycles: cycles, Imbalance: imbalanceOf(clusterBytes, sp.totalBytes)}
				st.cycles += cycles
				st.moves += moves
				if opts.Validate {
					return opts.checkPoint(c, tables, rad, n, cur, cycles, moves)
				}
				return nil
			}
			if err := emit(); err != nil {
				return st, err
			}
			for i := uint64(lo) + 1; i < uint64(hi); i++ {
				obj := rad.grayStep(i) + int(shift)
				old := curDigit[obj]
				nw := old + 1
				if nw == rad.k {
					nw = 0
				}
				curDigit[obj] = nw
				if nw == 0 {
					cur -= uint64(rad.k-1) * rad.pow[obj]
				} else {
					cur += rad.pow[obj]
				}
				clusterBytes[old] -= sp.bytes[obj]
				clusterBytes[nw] += sp.bytes[obj]
				for _, ref := range objFuncs[obj] {
					oldSig := sigIdx[ref.ti]
					var nwSig int
					if nw == 0 {
						nwSig = oldSig - (rad.k-1)*int(rad.pow[ref.bit])
					} else {
						nwSig = oldSig + int(rad.pow[ref.bit])
					}
					cycles += tables[ref.ti].cost[nwSig].Cycles - tables[ref.ti].cost[oldSig].Cycles
					moves += tables[ref.ti].cost[nwSig].Moves - tables[ref.ti].cost[oldSig].Moves
					sigIdx[ref.ti] = nwSig
					st.funcs++
				}
				st.delta++
				if err := emit(); err != nil {
					return st, err
				}
			}
			return st, nil
		})
	if err != nil {
		return nil, err
	}
	if canon {
		full := uint64(1)<<uint(n) - 1
		for m := uint64(1); m < uint64(len(points)); m += 2 {
			src := points[^m&full]
			points[m] = MappingPoint{Mask: m, Cycles: src.Cycles, Imbalance: src.Imbalance}
		}
	}

	var delta, funcs int64
	for _, st := range stats {
		delta += st.delta
		funcs += st.funcs
		res.Cycles += st.cycles
		res.Moves += st.moves
	}
	// Logical accounting matches §4.5: every enumerated mask is one
	// detailed-partitioner run, however much of it the tables served.
	res.DetailedRuns = seqLen
	outer.Observer.Counter("eval_masks").Add(int64(seqLen))
	outer.Observer.Counter("sweep_masks_delta").Add(delta)
	outer.Observer.Counter("sweep_funcs_recomputed").Add(funcs)
	return points, nil
}
