package rhop

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/sched"
)

// FuncPartitioner partitions one prepared function on one machine under
// options fixed at construction, as often as its caller asks: a scheme run
// partitions each function once, a data-mapping sweep partitions it under
// every reachable lock map. On top of the Prepared's shared min-cut memo and
// block-schedule cache, it memoizes each region's result across its own
// Partition calls.
//
// The region-result memo is exact, not heuristic. Partition processes
// regions in a fixed heat order, and each region's outcome is a pure
// function of (a) the locks on that region's ops and (b) the assignment of
// previously-placed ops (which anchor live-in/live-out values) — everything
// else is function structure fixed in the Prepared, or the machine and
// options fixed in the partitioner. The key encodes exactly (a) and (b), so a
// hit replays a byte-identical region result and a reused partitioner
// returns exactly what a fresh one would for the same locks (pinned by
// TestFuncPartitionerMatchesPartitionFunc).
//
// A FuncPartitioner is not safe for concurrent use; sweeps create one per
// function, processed by one worker at a time. Any number of them may share
// one Prepared.
type FuncPartitioner struct {
	p      *Prepared
	mcfg   *machine.Config
	opts   Options
	blocks *sched.BlockCache // p.BlockCache(mcfg)
	// sc is the working memory of the Partition call in progress, taken
	// from scratchPool and returned when the call ends.
	sc *scratch
	// results maps a region key (see regionKey) to the region ops' clusters.
	results map[string][]int
	// hits counts the regions served from results.
	hits int64
}

// scratchPool recycles partitioners' working memory across Partition
// calls; every buffer in a scratch is reset or regenerated before it is
// read.
var scratchPool = sync.Pool{New: func() any { return &scratch{sched: sched.NewScratch()} }}

// NewPartitioner returns a partitioner for p on mcfg under opts.
func (p *Prepared) NewPartitioner(mcfg *machine.Config, opts Options) *FuncPartitioner {
	return &FuncPartitioner{p: p, mcfg: mcfg, opts: opts, blocks: p.BlockCache(mcfg), results: map[string][]int{}}
}

// Partition assigns every op of the prepared function to a cluster under
// the given locks. The returned slice is freshly allocated and owned by the
// caller.
func (fp *FuncPartitioner) Partition(locks Locks) ([]int, error) {
	f := fp.p.f
	k := fp.mcfg.NumClusters()
	for id, c := range locks {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("rhop: %s op %d locked to cluster %d of %d", f.Name, id, c, k)
		}
	}
	fp.sc = scratchPool.Get().(*scratch)
	defer func() {
		scratchPool.Put(fp.sc)
		fp.sc = nil
	}()
	// A call that failed before its flush left tallies behind.
	fp.sc.resetTallies()
	asg := make([]int, f.NOps)
	for i := range asg {
		asg[i] = -1
	}
	for ri, pre := range fp.p.pre {
		if len(pre.regionOps) == 0 {
			continue
		}
		buf := fp.regionKey(ri, pre, locks, asg)
		if snap, ok := fp.results[string(buf)]; ok {
			for i, op := range pre.regionOps {
				asg[op.ID] = snap[i]
			}
			fp.hits++
			continue
		}
		key := string(buf)
		if err := fp.partitionRegion(ri, pre, locks, asg); err != nil {
			return nil, err
		}
		fp.results[key] = snapshotRegion(pre.regionOps, asg, nil)
	}
	for id, c := range asg {
		if c < 0 {
			return nil, fmt.Errorf("rhop: %s op %d left unassigned", f.Name, id)
		}
	}
	fp.sc.flush(fp.opts)
	return asg, nil
}

// regionKey encodes, in the scratch's key buffer, the complete input
// closure of region ri's partitioning: the region index, the lock state of
// each region op (in region order) and the prior assignments
// partitionRegion can observe — the external def/use sites its graph
// anchors consult (extRefs) and the out-of-region definers of the blocks'
// live-in registers (extHomeRefs), which are the only out-of-region
// assignments the cost scorer's and refiners' home computations depend on.
// -1 and clusters 0..k-1 fit one byte each (machine.Validate bounds k by
// machine.MaxClusters). The returned buffer is valid until the next call;
// callers look up with a zero-copy string conversion and materialize the
// key only to store.
func (fp *FuncPartitioner) regionKey(ri int, pre *regionPre, locks Locks, asg []int) []byte {
	buf := binary.AppendUvarint(fp.sc.keyBuf[:0], uint64(ri))
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
