// Package rhop implements the Region-based Hierarchical Operation
// Partitioning computation partitioner (Chu, Fan & Mahlke, PLDI'03), in the
// enhanced form this paper's §3.4 uses: memory operations may be locked to
// the home cluster of the data object they access, and the partitioner then
// distributes all remaining operations around those locked anchors using
// schedule-length estimates.
//
// Structure per region (an innermost loop body or a singleton block):
//
//  1. build an operation graph whose edge weights derive from dependence
//     slack (low slack = critical = heavy edge) scaled by profile
//     frequency, with locked operations and live-in values as fixed
//     anchors;
//  2. obtain an initial assignment from the multilevel min-cut partitioner
//     (internal/partition), which performs the coarsen/uncoarsen phases;
//  3. refine with estimate-driven local moves: an operation migrates to
//     another cluster when the region's estimated profile-weighted
//     schedule length strictly improves. The estimate combines the
//     resource bound, the intercluster-bus bound, and the critical path
//     with move latencies — the same ingredients as RHOP's schedule
//     estimator.
package rhop

import (
	"mcpart/internal/cfg"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/memo"
	"mcpart/internal/obs"
	"mcpart/internal/partition"
	"mcpart/internal/profile"
	"mcpart/internal/sched"
)

// Locks maps op IDs (within one function) to the cluster the op must run
// on. Memory operations get locked to their object's home cluster by the
// data-partitioning schemes; an empty map reproduces unified-memory RHOP.
type Locks map[int]int

// Options tunes the partitioner.
type Options struct {
	// UniformEdges disables slack weighting (ablation: every dependence
	// edge gets the same base weight).
	UniformEdges bool
	// PairRefine adds a group-refinement phase that moves heavy-edge op
	// pairs together, as RHOP's multilevel uncoarsening does at its
	// coarser levels; single-op moves sometimes cannot escape the local
	// minima pair moves can.
	PairRefine bool
	// Obs, when non-nil, receives the partitioner's work counters
	// (rhop_functions, rhop_regions, rhop_moves_accepted, rhop_cost_evals,
	// rhop_kway_runs, rhop_kway_hits, rhop_refine_runs) and is threaded
	// into the graph partitioner. Value-neutral and excluded from CacheKey;
	// the partitioner tallies into scratch ints and flushes once per
	// Partition call, so nil costs nothing on the hot path.
	Obs *obs.Observer
}

// refinePasses bounds the estimate-driven refinement sweeps per region.
const refinePasses = 4

// opTol is the initial min-cut partition's op-count imbalance tolerance;
// refinement rebalances by estimate afterwards.
const opTol = 0.4

// CacheKey returns a canonical encoding of every option that can change a
// partitioning outcome. Obs is excluded: it only counts and never changes
// an outcome.
func (o Options) CacheKey() string {
	return memo.NewKey("rhopopts").
		Bool(o.UniformEdges).
		Bool(o.PairRefine).
		String()
}

// scratch bundles the reusable working memory of one Partition call: the
// list scheduler's node tables, the live-in home table, and the schedule
// estimator's tables (regionEval). Every call takes its own from
// scratchPool and returns it when done, so concurrent partitioners stay
// race-free even when they share a Prepared.
type scratch struct {
	sched *sched.Scratch
	// observability tallies, accumulated by the refinement loops and
	// flushed once per Partition call when Options.Obs is set.
	tRegions, tMoves, tEvals  int64
	tKWay, tKWayHits, tRefine int64

	re     regionEval
	keyBuf []byte
	idBuf  []byte
	// graph-build buffers, reused across partitionRegion calls.
	edges     []regionEdge
	anchors   []regionAnchor
	anchorIdx map[int]int
	deg       []int
	unlocked  []*ir.Op
	// live-in home buffers (regionPre.liveInHomes): homeT is a full
	// NRegs-wide table with only the current region's live-in entries
	// valid; cnt is the per-register cluster tally. realRegionCost and the
	// refinement loop's regionEval share them; they never interleave.
	homeT []int
	cnt   []int64
}

// flush adds the tallies of one Partition call to opts.Obs and resets them.
func (sc *scratch) flush(opts Options) {
	if o := opts.Obs; o != nil {
		o.Counter("rhop_functions").Add(1)
		o.Counter("rhop_regions").Add(sc.tRegions)
		o.Counter("rhop_moves_accepted").Add(sc.tMoves)
		o.Counter("rhop_cost_evals").Add(sc.tEvals)
		o.Counter("rhop_kway_runs").Add(sc.tKWay)
		o.Counter("rhop_kway_hits").Add(sc.tKWayHits)
		o.Counter("rhop_refine_runs").Add(sc.tRefine)
	}
	sc.resetTallies()
}

// resetTallies zeroes the observability tallies.
func (sc *scratch) resetTallies() {
	sc.tRegions, sc.tMoves, sc.tEvals = 0, 0, 0
	sc.tKWay, sc.tKWayHits, sc.tRefine = 0, 0, 0
}

// regionEdge and regionAnchor are partitionRegion's graph-build records,
// hoisted to package scope so scratch can reuse their backing arrays.
type regionEdge struct {
	u, v int
	w    int64
}

type regionAnchor struct {
	home int
}

// regionHeat is the hottest block frequency within a region.
func regionHeat(prof *profile.Profile, r *cfg.Region) int64 {
	var h int64
	for _, b := range r.Blocks {
		if fq := blockFreq(prof, b); fq > h {
			h = fq
		}
	}
	return h
}

// blockFreq returns the profile frequency of b, treating unexecuted blocks
// as frequency 1 so static code still partitions deterministically.
func blockFreq(prof *profile.Profile, b *ir.Block) int64 {
	if prof == nil {
		return 1
	}
	if fq := prof.Freq(b); fq > 0 {
		return fq
	}
	return 1
}

// partitionRegion places the ops of one region: the min-cut partition and
// every single-cluster layout are each refined by schedule estimates, and
// the candidate with the lowest real schedule cost wins. ri is the region's
// heat-order index.
func (fp *FuncPartitioner) partitionRegion(ri int, pre *regionPre, locks Locks, asg []int) error {
	sc, p, mcfg, opts := fp.sc, fp.p, fp.mcfg, fp.opts
	k := mcfg.NumClusters()
	regionOps := pre.regionOps
	sc.tRegions++

	// The min-cut is memoized by its true inputs; a hit skips the graph
	// build and the KWay run entirely.
	part, hit, err := p.cuts.cuts.Do(sc.cutKey(ri, pre, k, opts, locks, asg), func() ([]uint8, error) {
		return fp.minCut(ri, pre, locks, asg)
	})
	if err != nil {
		return err
	}
	if hit {
		sc.tKWayHits++
	}

	// Candidate 1: the min-cut partition, refined by schedule estimates.
	apply := func(choice func(i int) int) {
		for i, op := range regionOps {
			if c, ok := locks[op.ID]; ok {
				asg[op.ID] = c
			} else {
				asg[op.ID] = choice(i)
			}
		}
	}
	var best []int
	bestCost := int64(-1)
	consider := func() {
		if cost := fp.realRegionCost(pre, asg); bestCost < 0 || cost < bestCost {
			best = snapshotRegion(regionOps, asg, best)
			bestCost = cost
		}
	}
	refine := func(withPair bool) {
		sc.tRefine++
		fp.refineRegion(pre, locks, asg)
		if withPair && opts.PairRefine {
			fp.pairRefineRegion(pre, locks, asg)
		}
	}
	apply(func(i int) int { return int(part[i]) })
	consider()
	refine(true)
	consider()

	// Candidates 2..k+1: everything (unlocked) on a single cluster, then
	// refined. This lets the partitioner collapse regions whose dependence
	// structure makes splitting a net loss at high move latencies — the
	// situation the paper's Figure 2 highlights — which purely local moves
	// cannot reach from a split starting point.
	for c := 0; c < k; c++ {
		feasible := true
		for _, op := range regionOps {
			if mcfg.Units(c, machine.KindOf(op.Opcode)) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		apply(func(int) int { return c })
		consider() // the pure single-cluster layout, before refinement
		refine(false)
		consider()
	}
	for i, op := range regionOps {
		asg[op.ID] = best[i]
	}
	return nil
}

// minCut builds the region's min-cut graph — region ops, then one anchor
// per live-in/live-out value already placed outside the region — from its
// static arcs and partitions it k ways. It returns the clusters of the
// region ops only. Above two clusters the k-way split runs through the
// MinCuts' split memo under the graph's identity (see graphID).
func (fp *FuncPartitioner) minCut(ri int, pre *regionPre, locks Locks, asg []int) ([]uint8, error) {
	sc, p, opts := fp.sc, fp.p, fp.opts
	regionOps := pre.regionOps
	if sc.anchorIdx == nil {
		sc.anchorIdx = map[int]int{} // anchor key -> node
	} else {
		clear(sc.anchorIdx)
	}
	anchorIdx := sc.anchorIdx
	anchors := sc.anchors[:0]
	edges := sc.edges[:0]
	addAnchor := func(key, home, node int, w int64) {
		ai, ok := anchorIdx[key]
		if !ok {
			ai = len(regionOps) + len(anchors)
			anchorIdx[key] = ai
			anchors = append(anchors, regionAnchor{home: home})
		}
		edges = append(edges, regionEdge{u: ai, v: node, w: w})
	}
	for u, op := range regionOps {
		scale := scaleFreq(pre.freqs[p.opBlock[op.ID]])
		for _, a := range pre.arcs[pre.arcStart[u]:pre.arcStart[u+1]] {
			if a.kind == arcUse {
				// Live-out consumers already placed in other regions
				// anchor this op's definition from the use side.
				if home := asg[a.other]; home >= 0 {
					addAnchor(^int(a.other), home, u, int64(a.w))
				}
				continue
			}
			w := int64(a.w)
			if opts.UniformEdges {
				w = 1
			}
			w *= scale
			if a.kind == arcIntra {
				edges = append(edges, regionEdge{u: int(a.other), v: u, w: w})
			} else if home := asg[a.other]; home >= 0 {
				// Live-in from an already-partitioned def: anchor it.
				addAnchor(int(a.other), home, u, w)
			}
		}
	}
	sc.edges, sc.anchors = edges, anchors

	g := partition.NewGraph(len(regionOps)+len(anchors), 1)
	for i, op := range regionOps {
		g.W[i][0] = scaleFreq(pre.freqs[p.opBlock[op.ID]])
		if c, ok := locks[op.ID]; ok {
			g.Fixed[i] = c
		}
	}
	for i, a := range anchors {
		g.Fixed[len(regionOps)+i] = a.home
	}
	deg := sc.deg[:0]
	for range g.Fixed {
		deg = append(deg, 0)
	}
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	sc.deg = deg
	g.Reserve(deg)
	for _, e := range edges {
		g.Connect(e.u, e.v, e.w)
	}

	sc.tKWay++
	k := fp.mcfg.NumClusters()
	popts := partition.Options{
		Tol: []float64{opTol},
		Obs: opts.Obs,
	}
	var part []int
	var err error
	if k > 2 {
		part, err = p.cuts.split.KWay(g, sc.graphID(ri, pre, opts, asg), k, popts)
	} else {
		part, err = partition.KWay(g, k, popts)
	}
	if err != nil {
		return nil, err
	}
	out := make([]uint8, len(regionOps))
	for i := range out {
		out[i] = uint8(part[i])
	}
	return out, nil
}

// realRegionCost scores a candidate with the actual list scheduler (the
// estimate guides the inner refinement loop; the final choice between
// refined candidates uses real schedule lengths so estimate error cannot
// pick a partition the machine executes badly). Block schedules go through
// the Prepared's block cache for the machine, so candidates, calls and
// schemes that agree on a block's inputs share one scheduler run.
func (fp *FuncPartitioner) realRegionCost(pre *regionPre, asg []int) int64 {
	sc, mcfg := fp.sc, fp.mcfg
	f := fp.p.f
	home := pre.liveInHomes(sc, f.NRegs, mcfg.NumClusters(), asg)
	var total int64
	for bi, b := range pre.region.Blocks {
		res, _ := fp.blocks.Schedule(sc.sched, b, asg, home)
		total += pre.freqs[bi] * int64(res.Length)
	}
	return total
}

// snapshotRegion copies the clusters of the region's ops, in region order,
// into dst's backing array (allocating when dst is too small).
func snapshotRegion(regionOps []*ir.Op, asg []int, dst []int) []int {
	dst = dst[:0]
	for _, op := range regionOps {
		dst = append(dst, asg[op.ID])
	}
	return dst
}

// scaleFreq compresses profile frequencies so hot blocks dominate without
// overflowing edge weights.
func scaleFreq(freq int64) int64 {
	w := int64(1)
	for freq > 1 {
		freq >>= 1
		w++
	}
	return w
}

type edgeKey struct{ def, use int }

// computeSlack returns per dependence edge (def, use) within the region the
// scheduling slack of that edge: how much the use could be delayed without
// stretching its block's critical path. Cross-block edges get the maximum
// observed slack (they are fed through registers and rarely critical).
// Slack reads only opcode latencies, never the machine's move costs or
// unit counts, which is what lets one Prepared serve every machine.
func computeSlack(region *cfg.Region, du *cfg.DefUse, ops []*ir.Op) map[edgeKey]int64 {
	slack := map[edgeKey]int64{}
	var crossEdges []edgeKey
	var maxSlack int64
	for _, b := range region.Blocks {
		// ASAP within block.
		asap := map[int]int64{}
		var blockLen int64
		for _, op := range b.Ops {
			var start int64
			for argI := range op.Args {
				for _, defID := range du.DefsOf[op.ID][argI] {
					if ops[defID].Block == b {
						if t := asap[defID] + int64(machine.Latency(ops[defID].Opcode)); t > start {
							start = t
						}
					}
				}
			}
			asap[op.ID] = start
			if end := start + int64(machine.Latency(op.Opcode)); end > blockLen {
				blockLen = end
			}
		}
		// ALAP within block (walk ops backwards).
		alap := map[int]int64{}
		for i := len(b.Ops) - 1; i >= 0; i-- {
			op := b.Ops[i]
			latest := blockLen - int64(machine.Latency(op.Opcode))
			for _, useID := range du.UsesOf[op.ID] {
				if ops[useID].Block == b {
					if t := alap[useID] - int64(machine.Latency(op.Opcode)); t < latest {
						latest = t
					}
				}
			}
			alap[op.ID] = latest
		}
		for _, op := range b.Ops {
			for argI := range op.Args {
				for _, defID := range du.DefsOf[op.ID][argI] {
					key := edgeKey{defID, op.ID}
					if ops[defID].Block == b {
						s := alap[op.ID] - (asap[defID] + int64(machine.Latency(ops[defID].Opcode)))
						if s < 0 {
							s = 0
						}
						slack[key] = s
						if s > maxSlack {
							maxSlack = s
						}
					} else {
						crossEdges = append(crossEdges, key)
					}
				}
			}
		}
	}
	for _, key := range crossEdges {
		slack[key] = maxSlack
	}
	return slack
}

// regionEval evaluates candidate assignments during one refinement loop:
// the region's estimated profile-weighted cycle count, per block the
// maximum of the per-cluster resource bound, the intercluster bus bound,
// and the dependence-critical path including move latencies.
//
// It re-estimates only what a move can change. A block's estimate walks
// its ops in order, and the completion time of the op at position i, the
// path length before it and the move keys (source entity, destination
// cluster) it records read only the clusters of the ops up to i and the
// homes of the live-in registers they read. So regionEval keeps, per
// block, its estimate, the position of its first stale op, and the walk's
// state before every op: the path length so far, how many move keys were
// recorded, and the op's completion time. The keys are kept in first-touch
// order with their source clusters, and the per-(cluster, FU kind) op
// counts of the resource bound are kept per block, updated by move in
// O(1). A move dirties its own block from the moved op. When it changes
// the home of the op's register, it dirties each block reading that
// register as a charged live-in (regionPre.readers) from its first such
// read; the ops before it cannot see the home. cost() resumes each dirty
// block at its first stale op from the saved state — the path length
// there, and the move keys recorded before it, whose sources are the
// clusters of defs before the stale op or homes whose change would have
// dirtied the block earlier — walks the rest of the block, then adds the
// resource and bus bounds. Clean blocks keep their estimate, and the
// region total is carried forward.
//
// The result equals a from-scratch estimate of every block after every
// move (pinned by TestIncrementalRefinementEquivalence against the
// reference estimator in the tests).
type regionEval struct {
	pre  *regionPre
	mcfg *machine.Config
	asg  []int
	k    int

	home    []int   // sc.homeT: valid for pre.homeRegs only
	cnt     []int64 // sc.cnt: home recomputation tally
	opBlock []int32 // Prepared.opBlock
	opPos   []int32 // Prepared.opPos
	total   int64   // region cost under the current assignment

	// per block
	val       []int64 // estimate as of the last cost()
	stale     []int32 // position of the first stale op, or -1 when clean
	dirtyList []int32 // the blocks with stale >= 0
	stamp     []int64 // the block's move-key stamp (see keyStamp)
	nkeys     []int32 // move keys recorded
	opCnt     []int32 // [block][cluster][kind]: ops assigned
	srcCnt    []int32 // [block][cluster]: recorded move keys sent from it

	// per region op: its cluster (asg by region index) and walk state
	cl   []int32
	walk []walkState

	// A block's move keys, in first-touch order, fill the slots of its
	// ops' estArgs entries (each argument adds at most one key).
	keys   []int32
	keySrc []int32
	// By move key ((region index of the def, or len(regionOps) + live-in
	// register) * k + destination): the stamp of the block that last
	// recorded it and its slot there. A key is recorded in the block being
	// walked when the stamp matches, the slot is below the block's key
	// count, and the slot holds the key (a truncated key's slot may have
	// been refilled). Live-in keys are shared by the region's blocks, so a
	// walk of a block other than the last one walked first re-stamps the
	// keys it keeps.
	keyStamp []int64
	keyAt    []int32
	gen      int64 // last stamp handed out; never reset
	last     int32 // the block walked last, or -1

	// machine tables for mcfg: k×k move latency, k×kind units (at least 1)
	lat    []int32
	units  []int32
	minLat int64
}

// walkState is the estimate walk's state before one op, and the op's
// completion time.
type walkState struct {
	length int64 // path length before the op (at least 1)
	done   int64 // the op's completion time
	nkeys  int32 // move keys recorded before the op
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newRegionEval readies sc's regionEval for one refinement loop over pre,
// reusing its buffers: every block is stale from its first op.
func (fp *FuncPartitioner) newRegionEval(pre *regionPre, asg []int) *regionEval {
	sc, p, mcfg := fp.sc, fp.p, fp.mcfg
	re := &sc.re
	k, nf := mcfg.NumClusters(), int(machine.NumFUKinds)
	nb, n := len(pre.region.Blocks), len(pre.regionOps)
	if re.mcfg != mcfg {
		re.mcfg = mcfg
		re.lat = resize(re.lat, k*k)
		re.units = resize(re.units, k*nf)
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				re.lat[a*k+b] = int32(mcfg.MoveLat(a, b))
			}
			for kind := 0; kind < nf; kind++ {
				re.units[a*nf+kind] = int32(max(1, mcfg.Units(a, machine.FUKind(kind))))
			}
		}
		// The bus bound charges the cheapest possible hop for the last
		// move in flight, which on non-uniform topologies is the
		// admissible choice (and equals MoveLatency exactly on
		// bus/ring/mesh/uniform matrices).
		re.minLat = int64(mcfg.MinMoveLat())
	}
	re.pre, re.asg, re.k = pre, asg, k
	re.home = pre.liveInHomes(sc, p.f.NRegs, k, asg)
	re.cnt = sc.cnt[:k]
	re.opBlock, re.opPos = p.opBlock, p.opPos
	re.total, re.last = 0, -1

	re.val = resize(re.val, nb)
	clear(re.val)
	re.stale = resize(re.stale, nb)
	clear(re.stale)
	re.dirtyList = re.dirtyList[:0]
	re.stamp = resize(re.stamp, nb)
	for bi := range re.stamp {
		re.dirtyList = append(re.dirtyList, int32(bi))
		re.gen++
		re.stamp[bi] = re.gen
	}
	re.nkeys = resize(re.nkeys, nb)
	clear(re.nkeys)
	re.srcCnt = resize(re.srcCnt, nb*k)
	clear(re.srcCnt)
	re.opCnt = resize(re.opCnt, nb*k*nf)
	clear(re.opCnt)
	re.cl = resize(re.cl, n)
	for bi := 0; bi < nb; bi++ {
		for i := pre.blockStart[bi]; i < pre.blockStart[bi+1]; i++ {
			e := &pre.est[i]
			c := asg[e.id]
			re.cl[i] = int32(c)
			re.opCnt[(bi*k+c)*nf+int(e.kind)]++
		}
	}

	re.walk = resize(re.walk, n)
	re.keys = resize(re.keys, len(pre.estArgs))
	re.keySrc = resize(re.keySrc, len(pre.estArgs))
	if nk := (n + p.f.NRegs) * k; len(re.keyStamp) < nk {
		re.keyStamp = make([]int64, nk)
		re.keyAt = make([]int32, nk)
	}
	return re
}

// move reassigns op (an op of the region) to cluster `to`, keeping the op
// counts and the home table coherent and marking where the estimates it
// can change go stale.
func (re *regionEval) move(op *ir.Op, to int) {
	from := re.asg[op.ID]
	if from == to {
		return
	}
	re.asg[op.ID] = to
	bi, pos := re.opBlock[op.ID], re.opPos[op.ID]
	i := re.pre.blockStart[bi] + pos
	re.cl[i] = int32(to)
	e := &re.pre.est[i]
	nf := int(machine.NumFUKinds)
	row := int(bi) * re.k
	re.opCnt[(row+from)*nf+int(e.kind)]--
	re.opCnt[(row+to)*nf+int(e.kind)]++
	re.markDirty(bi, pos)
	if e.home < 0 {
		return
	}
	if h := re.pre.home(int(e.home), re.asg, re.cnt); h != re.home[op.Dst] {
		re.home[op.Dst] = h
		for _, rd := range re.pre.readers[re.pre.readerStart[e.home]:re.pre.readerStart[e.home+1]] {
			re.markDirty(rd.block, rd.first)
		}
	}
}

// markDirty records that block bi's estimate is stale from its op at
// position pos on.
func (re *regionEval) markDirty(bi, pos int32) {
	switch s := re.stale[bi]; {
	case s < 0:
		re.stale[bi] = pos
		re.dirtyList = append(re.dirtyList, bi)
	case pos < s:
		re.stale[bi] = pos
	}
}

// cost returns the region's estimated profile-weighted cycle count under
// the current assignment.
func (re *regionEval) cost() int64 {
	for _, bi := range re.dirtyList {
		v := re.estimate(bi, re.stale[bi])
		re.total += re.pre.freqs[bi] * (v - re.val[bi])
		re.val[bi] = v
		re.stale[bi] = -1
	}
	re.dirtyList = re.dirtyList[:0]
	return re.total
}

// estimate returns block bi's schedule-length estimate, re-walking it from
// its op at position pos on and resuming from the walk state saved before
// that op. It tracks the list scheduler's three limiting factors but
// ignores second-order interactions, which keeps refinement fast.
func (re *regionEval) estimate(bi, pos int32) int64 {
	pre, k := re.pre, re.k
	lo, hi := pre.blockStart[bi], pre.blockStart[bi+1]
	from := lo + pos
	length, nk := int64(1), int32(0)
	if pos > 0 {
		length, nk = re.walk[from].length, re.walk[from].nkeys
	}
	slots := pre.est[lo].arg
	keys := re.keys[slots:pre.est[hi].arg]
	keySrc := re.keySrc[slots:pre.est[hi].arg]
	src := re.srcCnt[int(bi)*k : int(bi+1)*k]
	for _, s := range keySrc[nk:re.nkeys[bi]] {
		src[s]--
	}
	stamp := re.stamp[bi]
	if re.last != bi {
		// Another block may have recorded a live-in key this block keeps:
		// reclaim them.
		for at, key := range keys[:nk] {
			re.keyStamp[key], re.keyAt[key] = stamp, int32(at)
		}
		re.last = bi
	}
	liveKeys := len(pre.regionOps)
	for i := from; i < hi; i++ {
		w := &re.walk[i]
		w.length, w.nkeys = length, nk
		c := int(re.cl[i])
		var start int64
		for _, a := range pre.estArgs[pre.est[i].arg:pre.est[i+1].arg] {
			var s, key int
			var t int64
			if a >= 0 {
				s, t = int(re.cl[a]), re.walk[a].done
				if s == c {
					start = max(start, t)
					continue
				}
				key = int(a)*k + c
			} else {
				r := int(^a)
				if s = re.home[r]; s == sched.EverywhereHome || s == c {
					continue
				}
				key = (liveKeys+r)*k + c
			}
			start = max(start, t+int64(re.lat[s*k+c]))
			// Moves occupy an integer-unit issue slot on their sending
			// cluster: record each (entity, destination) once.
			if at := re.keyAt[key]; re.keyStamp[key] != stamp || at >= nk || keys[at] != int32(key) {
				re.keyStamp[key], re.keyAt[key] = stamp, nk
				keys[nk], keySrc[nk] = int32(key), int32(s)
				src[s]++
				nk++
			}
		}
		w.done = start + int64(pre.est[i].lat)
		length = max(length, w.done)
	}
	re.nkeys[bi] = nk

	nf := int(machine.NumFUKinds)
	cnt := re.opCnt[int(bi)*k*nf : int(bi+1)*k*nf]
	for c := 0; c < k; c++ {
		for kind := 0; kind < nf; kind++ {
			n := cnt[c*nf+kind]
			if kind == int(machine.FUInt) {
				n += src[c]
			}
			// ceil(n/units) <= n: only a count above the length can raise it.
			if int64(n) <= length {
				continue
			}
			u := re.units[c*nf+kind]
			length = max(length, int64((n+u-1)/u))
		}
	}
	if nk > 0 {
		bw := int64(re.mcfg.MoveBandwidth)
		length = max(length, (int64(nk)+bw-1)/bw+re.minLat)
	}
	return length
}

// refineRegion performs estimate-driven local moves: each pass visits the
// region's unlocked ops in op-ID order and migrates an op to the cluster
// minimizing the region's estimated cost, keeping strict improvements only.
// Candidate evaluation goes through a regionEval so only the blocks a
// tentative move touches are re-estimated.
func (fp *FuncPartitioner) refineRegion(pre *regionPre, locks Locks, asg []int) {
	sc, mcfg := fp.sc, fp.mcfg
	k := mcfg.NumClusters()
	unlocked := sc.unlocked[:0]
	for _, op := range pre.byID {
		if _, locked := locks[op.ID]; !locked {
			unlocked = append(unlocked, op)
		}
	}
	sc.unlocked = unlocked

	re := fp.newRegionEval(pre, asg)
	cur := re.cost()
	for pass := 0; pass < refinePasses; pass++ {
		improved := false
		for _, op := range unlocked {
			orig := asg[op.ID]
			bestC, bestCost := orig, cur
			for c := 0; c < k; c++ {
				if c == orig {
					continue
				}
				if mcfg.Units(c, machine.KindOf(op.Opcode)) == 0 {
					continue
				}
				re.move(op, c)
				sc.tEvals++
				if nc := re.cost(); nc < bestCost {
					bestC, bestCost = c, nc
				}
			}
			re.move(op, bestC)
			if bestC != orig {
				cur = bestCost
				improved = true
				sc.tMoves++
			}
		}
		if !improved {
			break
		}
	}
}

// pairRefineRegion moves pairs of ops joined by their heaviest dependence
// edge between clusters together, accepting strict estimate improvements.
// This emulates a coarser level of RHOP's uncoarsening hierarchy.
func (fp *FuncPartitioner) pairRefineRegion(pre *regionPre, locks Locks, asg []int) {
	sc := fp.sc
	k := fp.mcfg.NumClusters()
	// Heaviest-neighbor matching over unlocked region ops: an op pairs
	// with the first in-region def among its arguments that is itself
	// unlocked and unmatched.
	type pair struct{ a, b *ir.Op }
	var pairs []pair
	matched := map[int]bool{}
	for u, op := range pre.regionOps {
		if matched[op.ID] {
			continue
		}
		if _, locked := locks[op.ID]; locked {
			continue
		}
		for _, a := range pre.arcs[pre.arcStart[u]:pre.arcStart[u+1]] {
			if a.kind != arcIntra {
				continue
			}
			def := pre.regionOps[a.other]
			if matched[def.ID] {
				continue
			}
			if _, locked := locks[def.ID]; locked {
				continue
			}
			pairs = append(pairs, pair{def, op})
			matched[def.ID], matched[op.ID] = true, true
			break
		}
	}
	re := fp.newRegionEval(pre, asg)
	cur := re.cost()
	for pass := 0; pass < 2; pass++ {
		improved := false
		for _, pr := range pairs {
			origA, origB := asg[pr.a.ID], asg[pr.b.ID]
			bestA, bestB, bestCost := origA, origB, cur
			for c := 0; c < k; c++ {
				if c == origA && c == origB {
					continue
				}
				re.move(pr.a, c)
				re.move(pr.b, c)
				sc.tEvals++
				if nc := re.cost(); nc < bestCost {
					bestA, bestB, bestCost = c, c, nc
				}
			}
			re.move(pr.a, bestA)
			re.move(pr.b, bestB)
			if bestA != origA || bestB != origB {
				cur = bestCost
				improved = true
				sc.tMoves++
			}
		}
		if !improved {
			break
		}
	}
}
