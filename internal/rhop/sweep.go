package rhop

import (
	"fmt"
	"sort"

	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/sched"
)

// FuncPartitioner partitions one prepared function on one machine under
// options fixed at construction. A one-shot partitioner (Prepared.Partition)
// carries no memo of its own; a sweep partitioner (Prepared.NewPartitioner)
// partitions the function repeatedly under varying lock maps, as a
// data-mapping sweep does, and caches per-region results across calls on
// top of the Prepared's shared min-cut memo.
//
// The sweep caches are exact, not heuristic, and all three are per machine.
// Partition processes regions in a fixed heat order, and each region's
// outcome is a pure function of (a) the locks on that region's ops and (b)
// the assignment of previously-placed ops (which anchor live-in/live-out
// values) — everything else is function structure fixed in the Prepared.
// The region-result key encodes exactly (a) and (b), so a hit replays a
// byte-identical region result and Partition returns exactly what
// PartitionFunc would for the same locks (pinned by
// TestFuncPartitionerMatchesPartitionFunc). Below that, the real-cost
// scorer and the refinement loops memoize by their own exact inputs (see
// regionMemo).
//
// A FuncPartitioner is not safe for concurrent use; sweeps create one per
// worker (or per function, processed by one worker at a time). Any number
// of them may share one Prepared.
type FuncPartitioner struct {
	p    *Prepared
	mcfg *machine.Config
	opts Options
	sc   *scratch
	// memo holds the per-region sweep caches; nil for one-shot use.
	memo []regionMemo

	hits, misses int64
}

// regionMemo is a sweep partitioner's per-machine memo for one region, keyed
// like FuncPartitioner.regionKey.
type regionMemo struct {
	// results maps the full region key to the region ops' clusters.
	results map[string][]int
	// cost memoizes realRegionCost, which is a function of the assignments
	// of the region's ops and the home clusters of the blocks' live-in
	// registers; a home cluster in turn depends only on the assignments of
	// the register's defining ops, so (region ops, extHomeRefs) keys it.
	cost map[string]int64
	// refined memoizes refinement outcomes (the region layout a starting
	// candidate converges to) under the same key space, plus a leading byte
	// separating the pair-refined candidate from the plain one: the
	// refinement loop's decisions read exactly the inputs cost's key covers.
	refined map[string][]int
}

// Partition assigns every op of f to a cluster, byte-identical to
// PartitionFunc(f, prof, mcfg, locks, opts) but reusing p's structure and
// min-cut memo.
func (p *Prepared) Partition(mcfg *machine.Config, locks Locks, opts Options) ([]int, error) {
	fp := FuncPartitioner{p: p, mcfg: mcfg, opts: opts, sc: &scratch{sched: sched.NewScratch()}}
	return fp.Partition(locks)
}

// NewPartitioner returns a sweep partitioner for p on mcfg under opts.
func (p *Prepared) NewPartitioner(mcfg *machine.Config, opts Options) *FuncPartitioner {
	fp := &FuncPartitioner{
		p: p, mcfg: mcfg, opts: opts,
		sc:   &scratch{sched: sched.NewScratch(), blockCost: map[string]int{}},
		memo: make([]regionMemo, len(p.pre)),
	}
	for i := range fp.memo {
		fp.memo[i] = regionMemo{results: map[string][]int{}, cost: map[string]int64{}, refined: map[string][]int{}}
	}
	return fp
}

// Partition assigns every op of the prepared function to a cluster under
// the given locks, byte-identical to PartitionFunc(f, prof, mcfg, locks,
// opts). The returned slice is freshly allocated and owned by the caller.
func (fp *FuncPartitioner) Partition(locks Locks) ([]int, error) {
	f := fp.p.f
	k := fp.mcfg.NumClusters()
	asg := make([]int, f.NOps)
	for i := range asg {
		asg[i] = -1
	}
	for id, c := range locks {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("rhop: %s op %d locked to cluster %d of %d", f.Name, id, c, k)
		}
	}
	for ri, pre := range fp.p.pre {
		if len(pre.regionOps) == 0 {
			continue
		}
		var rm *regionMemo
		var key string
		if fp.memo != nil {
			rm = &fp.memo[ri]
			buf := fp.regionKey(pre, locks, asg)
			if snap, ok := rm.results[string(buf)]; ok {
				for i, op := range pre.regionOps {
					asg[op.ID] = snap[i]
				}
				fp.hits++
				continue
			}
			key = string(buf)
		}
		if err := fp.partitionRegion(ri, pre, rm, locks, asg); err != nil {
			return nil, err
		}
		if rm != nil {
			snap := make([]int, len(pre.regionOps))
			for i, op := range pre.regionOps {
				snap[i] = asg[op.ID]
			}
			rm.results[key] = snap
			fp.misses++
		}
	}
	for id, c := range asg {
		if c < 0 {
			return nil, fmt.Errorf("rhop: %s op %d left unassigned", f.Name, id)
		}
	}
	fp.sc.flush(fp.opts)
	return asg, nil
}

// regionKey encodes the complete input closure of one region's
// partitioning: the lock state of each region op (in region order) and the
// prior assignments partitionRegion can observe — the external def/use
// sites its graph anchors consult (extRefs) and the out-of-region definers
// of the blocks' live-in registers (extHomeRefs), which are the only
// out-of-region assignments the cost scorer's and refiners' home
// computations depend on. -1 and clusters 0..k-1 fit one byte each; k is
// bounded well below 254 by machine configs. The returned buffer is owned
// by fp and valid until the next call; callers look up with a zero-copy
// string conversion and materialize the key only to store.
func (fp *FuncPartitioner) regionKey(pre *regionPre, locks Locks, asg []int) []byte {
	buf := fp.sc.keyBuf[:0]
	for _, op := range pre.regionOps {
		if c, ok := locks[op.ID]; ok {
			buf = append(buf, byte(c))
		} else {
			buf = append(buf, 0xFF)
		}
	}
	for _, id := range pre.extRefs {
		buf = append(buf, byte(asg[id]+1))
	}
	for _, id := range pre.extHomeRefs {
		buf = append(buf, byte(asg[id]+1))
	}
	fp.sc.keyBuf = buf
	return buf
}

// Hits and Misses report the region-cache effectiveness across all
// Partition calls so far.
func (fp *FuncPartitioner) Hits() int64   { return fp.hits }
func (fp *FuncPartitioner) Misses() int64 { return fp.misses }

// TouchedObjects returns the sorted set of data-object IDs f's memory
// operations may access — the objects whose mapping can change f's locks,
// and therefore its partition and cycle count. A sweep only needs to
// re-evaluate f when one of these objects moves.
func TouchedObjects(f *ir.Func) []int {
	seen := map[int]bool{}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if !op.Opcode.IsMem() {
				continue
			}
			for _, o := range op.MayAccess {
				seen[o] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}
