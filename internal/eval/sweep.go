package eval

import (
	"context"
	"errors"
	"time"

	"mcpart/internal/gdp"
	"mcpart/internal/machine"
	"mcpart/internal/memo"
	"mcpart/internal/parallel"
	"mcpart/internal/rhop"
	"mcpart/internal/sched"

	"mcpart/internal/ir"
)

// This file implements the Gray-code delta sweep behind Exhaustive.
//
// ProgramCycles is exactly the sum of per-function FuncCycles (pinned in
// the sched tests), and a function's locks — hence its partition and cycle
// cost — depend only on the data map projected onto its touched-object set.
// So instead of evaluating 2^n masks through the full per-mask pipeline,
// the sweep (1) tabulates each function's cost for each of its at most 2^t
// reachable lock signatures, then (2) enumerates the masks in reflected
// Gray-code order, where consecutive masks flip exactly one object: only
// the functions touching the flipped object change table index, and the
// program total moves by an exact integer delta. The point values are
// byte-identical to the per-mask engine's — both are the same sums of the
// same memoized per-function results — which TestDeltaSweepMatchesFull
// pins across benchmarks, latencies and worker counts.
//
// Phase 1 computes per-signature results through the same memo keys the
// per-mask engine uses ("locks", "part", "sched"), so the in-memory cache
// and the persistent artifact store stay fully shared between the two
// paths; partition misses run through a rhop.FuncPartitioner, which builds
// on the Compiled's shared rhop.Prepared (region structure and min-cut
// memo) and caches per-machine region results across signatures.
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
// enumerated points (the same totals the per-mask engine folds into its
// observability registry one run at a time).
type chunkStats struct {
	delta  int64
	funcs  int64
	cycles int64
	moves  int64
}

// sweepErr mirrors the per-mask engine's error wrapping: pipeline failures
// surface as CellErrors naming the benchmark and the Fixed scheme (without
// a mask — a table entry serves many masks).
func sweepErr(c *Compiled, err error) error {
	var ce *CellError
	if errors.As(err, &ce) {
		return err
	}
	return &CellError{Bench: c.Name, Scheme: SchemeFixed, Err: err}
}

// buildCostTables runs phase 1: one cost table per function, built through
// the standard memoized per-function pipeline (locks → partition →
// schedule cost), fanned across workers function-by-function.
func buildCostTables(ctx context.Context, c *Compiled, cfg *machine.Config,
	opts Options, rad *radix, canon bool, n int, res *Result) ([]costTable, error) {

	useMemo := c.useMemo()
	ropts := opts.rhopOpts()
	mkey := cfg.CacheKey()
	okey := ropts.CacheKey()
	items, err := parallel.MapStage(ctx, "sweep_tables", len(c.Mod.Funcs), opts.Workers,
		func(_ context.Context, fi int) (tableStats, error) {
			f := c.Mod.Funcs[fi]
			var objs []int
			if useMemo {
				objs = c.touched[f]
			} else {
				objs = rhop.TouchedObjects(f)
			}
			ts := tableStats{table: costTable{f: f, objs: objs, k: rad.k, cost: make([]sched.Cost, rad.count(len(objs)))}}
			// Canonical masks pin object 0 to cluster 0, so signatures
			// placing it elsewhere can never be asked for.
			fixed0 := canon && len(objs) > 0 && objs[0] == 0
			var fp *rhop.FuncPartitioner
			var sc *sched.Scratch
			var lc *sched.LoopCtx
			var bc *sched.BlockCache
			dm := make(gdp.DataMap, n)
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
				var locks rhop.Locks
				if useMemo {
					key := lockSigKey(memo.NewKey("locks").Str(f.Name), c, f, dm).String()
					v, _, _ := c.memo.DoCodec(key, lockCodec{}, func() (any, error) {
						return gdp.ComputeLocksFunc(f, dm, c.Prof), nil
					})
					locks = v.(rhop.Locks)
				} else {
					locks = gdp.ComputeLocksFunc(f, dm, c.Prof)
				}
				partition := func() (any, error) {
					if fp == nil {
						var p *rhop.Prepared
						if useMemo {
							p = c.prepared(f)
						} else {
							p = rhop.Prepare(f, c.Prof, nil)
						}
						fp = p.NewPartitioner(cfg, ropts)
					}
					return fp.Partition(locks)
				}
				var asg []int
				if useMemo {
					v, hit, err := c.memo.DoCodec(partitionKey(c, f, dm, locks, mkey, okey), partCodec{}, partition)
					if err != nil {
						return ts, err
					}
					if hit {
						ts.partHits++
					}
					asg = v.([]int)
				} else {
					v, err := partition()
					if err != nil {
						return ts, err
					}
					asg = v.([]int)
				}
				cost := func() (any, error) {
					if sc == nil {
						sc = sched.NewScratch()
						sc.SetObserver(opts.Observer)
						lc = sched.NewLoopCtx(f)
						bc = sched.NewBlockCache(f)
					}
					cyc, mv := sc.FuncCyclesCached(f, asg, lc, cfg, c.Prof, bc)
					return [2]int64{cyc, mv}, nil
				}
				var pair [2]int64
				if useMemo {
					v, hit, _ := c.memo.DoCodec(memo.NewKey("sched").Str(f.Name).Str(mkey).Ints(asg).String(), schedCodec{}, cost)
					if hit {
						ts.schedHits++
					}
					pair = v.([2]int64)
				} else {
					v, _ := cost()
					pair = v.([2]int64)
				}
				ts.table.cost[sig] = sched.Cost{Cycles: pair[0], Moves: pair[1]}
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
// what the per-mask engine's evalMask fan-out produces. outer is the
// ExhaustiveCtx-level Options; one SchemeFixed observability scope wraps
// the whole sweep, folding the same summed eval_cycles/eval_moves and
// logical DetailedRuns accounting the per-mask engine reports one run at a
// time.
func sweepPoints(ctx context.Context, c *Compiled, cfg *machine.Config, outer Options,
	rad *radix, bytes []int64, totalBytes int64, canon bool, n int) (points []MappingPoint, err error) {

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
			var cycles, moves int64
			for ti := range tables {
				sig := 0
				for bi, o := range tables[ti].objs {
					sig += rad.digit(cur, o) * int(rad.pow[bi])
				}
				sigIdx[ti] = sig
				cycles += tables[ti].cost[sig].Cycles
				moves += tables[ti].cost[sig].Moves
			}
			for j := 0; j < n; j++ {
				curDigit[j] = rad.digit(cur, j)
				clusterBytes[curDigit[j]] += bytes[j]
			}
			emit := func() {
				points[cur] = MappingPoint{Mask: cur, Cycles: cycles, Imbalance: imbalanceOf(clusterBytes, totalBytes)}
				st.cycles += cycles
				st.moves += moves
			}
			emit()
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
				clusterBytes[old] -= bytes[obj]
				clusterBytes[nw] += bytes[obj]
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
				emit()
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
