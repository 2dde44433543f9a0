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
	"slices"

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
// estimator's dense tables. Every call takes its own from scratchPool and
// returns it when done, so concurrent partitioners stay race-free even when
// they share a Prepared.
type scratch struct {
	sched *sched.Scratch
	// observability tallies, accumulated by the refinement loops and
	// flushed once per Partition call when Options.Obs is set.
	tRegions, tMoves, tEvals  int64
	tKWay, tKWayHits, tRefine int64

	est    estScratch
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

// regionEval evaluates candidate assignments during one refinement loop.
// By default it caches per-block schedule-length estimates and invalidates
// them explicitly: move marks the moved op's own block dirty, and — when
// the move changes a value's home cluster — every block that reads the
// value live-in (via regionPre's reg→blocks index). A dirty block is
// re-estimated on the next cost call; clean blocks keep their cached
// length, and the region total is carried forward so cost() touches only
// the blocks invalidated since the last call. The home table holds only the
// region's live-in registers (regionPre.liveInHomes); a move recomputes the
// moved op's destination register from its def list, and only when some
// region block reads that register live-in. The cache is exact: a block's
// estimate reads only the clusters of its own ops and the homes of its
// read-before-def live-in registers (homeRegs), each home is recomputed
// with HomeClustersFreq's weights and tie-breaks whenever one of its defs
// moves, and the dirtied set covers every block where either input
// changed, so incremental and from-scratch evaluation return identical
// costs (pinned by TestIncrementalRefinementEquivalence).
type regionEval struct {
	sc   *scratch
	pre  *regionPre
	lc   *sched.LoopCtx
	mcfg *machine.Config
	asg  []int

	home      []int   // sc.homeT: valid for pre.homeRegs only
	cnt       []int64 // sc.cnt: home recomputation tally
	opBlock   []int32 // Prepared.opBlock
	val       []int64 // per block: cached blockLen
	dirty     []bool  // per block: val is stale
	dirtyList []int32 // the indices set in dirty
	total     int64   // region cost under the current assignment
}

// newRegionEval readies sc's regionEval for one refinement loop over pre,
// reusing its buffers.
func (fp *FuncPartitioner) newRegionEval(pre *regionPre, asg []int) *regionEval {
	sc, p := fp.sc, fp.p
	re := &sc.re
	*re = regionEval{
		sc: sc, pre: pre, lc: p.lc, mcfg: fp.mcfg, asg: asg,
		opBlock: p.opBlock,
		val:     re.val[:0], dirty: re.dirty[:0], dirtyList: re.dirtyList[:0],
	}
	k := fp.mcfg.NumClusters()
	re.home = pre.liveInHomes(sc, p.f.NRegs, k, asg)
	re.cnt = sc.cnt[:k]
	for i := range pre.region.Blocks {
		re.val = append(re.val, 0)
		re.dirty = append(re.dirty, true)
		re.dirtyList = append(re.dirtyList, int32(i))
	}
	return re
}

// move reassigns op (an op of the region) to cluster `to`, keeping the home
// table coherent and invalidating the blocks whose estimate it can change.
func (re *regionEval) move(op *ir.Op, to int) {
	if re.asg[op.ID] == to {
		return
	}
	re.asg[op.ID] = to
	re.markDirty(re.opBlock[op.ID])
	if op.Dst == ir.NoReg {
		return
	}
	if blocks := re.pre.regBlocks[op.Dst]; len(blocks) > 0 {
		ui, _ := slices.BinarySearch(re.pre.homeRegs, op.Dst)
		if h := re.pre.home(ui, re.asg, re.cnt); h != re.home[op.Dst] {
			re.home[op.Dst] = h
			for _, bi := range blocks {
				re.markDirty(bi)
			}
		}
	}
}

// cost returns the region's estimated profile-weighted cycle count under
// the current assignment.
func (re *regionEval) cost() int64 {
	blocks := re.pre.region.Blocks
	for _, i := range re.dirtyList {
		v := re.sc.est.blockLen(blocks[i], re.asg, re.home, re.lc, re.mcfg)
		re.total += re.pre.freqs[i] * (v - re.val[i])
		re.val[i] = v
		re.dirty[i] = false
	}
	re.dirtyList = re.dirtyList[:0]
	return re.total
}

func (re *regionEval) markDirty(bi int32) {
	if !re.dirty[bi] {
		re.dirty[bi] = true
		re.dirtyList = append(re.dirtyList, bi)
	}
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

// EstimateRegionCost estimates the profile-weighted cycle contribution of a
// region under assignment asg without running the full list scheduler: per
// block, the maximum of the per-cluster resource bound, the intercluster
// bus bound, and the dependence-critical path including move latencies.
func EstimateRegionCost(f *ir.Func, region *cfg.Region, prof *profile.Profile,
	mcfg *machine.Config, asg []int) int64 {
	var est estScratch
	var hs sched.HomeScratch
	lc := sched.NewLoopCtx(f)
	home := hs.HomeClustersFreq(f, asg, mcfg.NumClusters(), func(b *ir.Block) int64 {
		return blockFreq(prof, b)
	})
	var total int64
	for _, b := range region.Blocks {
		total += blockFreq(prof, b) * est.blockLen(b, asg, home, lc, mcfg)
	}
	return total
}

// estScratch is the schedule estimator's reusable working memory: dense
// tables indexed by op ID, register, and (source entity, cluster) move key,
// generation-stamped so a new call starts fresh in O(1). The estimator runs
// once per candidate move of the refinement loops — the single hottest path
// of the whole pipeline — so it allocates nothing after warm-up.
type estScratch struct {
	gen   int64
	ready []int64 // by op ID: completion time estimate (valid when the
	// register's defGen stamp is current — a def is always estimated
	// before any of its uses)
	lastDef []int // by register: op ID of latest def
	defGen  []int64
	counts  []int   // [cluster][kind] flattened; zeroed per call
	moveSrc []int   // by move key: source cluster
	moveGen []int64 // by move key
	touched []int   // move keys recorded this call, in first-touch order

	// minLat is mcfg.MinMoveLat() memoized per config pointer: the drain
	// bound below charges the cheapest possible hop for the last move in
	// flight, which on non-uniform topologies is the admissible choice
	// (and equals MoveLatency exactly on bus/ring/mesh/uniform matrices).
	minLatCfg *machine.Config
	minLat    int
}

// prepare sizes the tables for f on a k-cluster machine and starts a new
// generation.
func (es *estScratch) prepare(f *ir.Func, k int) {
	if len(es.ready) < f.NOps {
		es.ready = make([]int64, f.NOps)
	}
	if len(es.lastDef) < f.NRegs {
		es.lastDef = make([]int, f.NRegs)
		es.defGen = make([]int64, f.NRegs)
	}
	if n := k * int(machine.NumFUKinds); len(es.counts) < n {
		es.counts = make([]int, n)
	} else {
		clear(es.counts[:n])
	}
	// Move keys: (def op ID, cluster) or (NOps + reg, cluster).
	if n := (f.NOps + f.NRegs) * k; len(es.moveSrc) < n {
		es.moveSrc = make([]int, n)
		es.moveGen = make([]int64, n)
	}
	es.touched = es.touched[:0]
	es.gen++
}

// blockLen is the schedule-length estimate for one block. It tracks the
// list scheduler's three limiting factors but ignores second-order
// interactions, which keeps refinement fast.
func (es *estScratch) blockLen(b *ir.Block, asg []int, home []int, lc *sched.LoopCtx, mcfg *machine.Config) int64 {
	k := mcfg.NumClusters()
	f := b.Func
	es.prepare(f, k)
	if es.minLatCfg != mcfg {
		es.minLatCfg = mcfg
		es.minLat = mcfg.MinMoveLat()
	}
	addMove := func(entity, to, src int) {
		key := entity*k + to
		if es.moveGen[key] != es.gen {
			es.moveGen[key] = es.gen
			es.touched = append(es.touched, key)
		}
		es.moveSrc[key] = src
	}
	var length int64 = 1
	for _, op := range b.Ops {
		c := asg[op.ID]
		es.counts[c*int(machine.NumFUKinds)+int(machine.KindOf(op.Opcode))]++
		var start int64
		for _, a := range op.Args {
			if !a.IsReg() {
				continue
			}
			if d := int(a.Reg); es.defGen[d] == es.gen {
				def := es.lastDef[d]
				t := es.ready[def]
				if asg[def] != c {
					addMove(def, c, asg[def])
					t += int64(mcfg.MoveLat(asg[def], c))
				}
				if t > start {
					start = t
				}
			} else if int(a.Reg) < len(home) {
				if hc := home[a.Reg]; hc != sched.EverywhereHome && hc != c &&
					!(lc != nil && lc.FreeLiveIn(b, a.Reg)) {
					addMove(f.NOps+int(a.Reg), c, hc)
					if t := int64(mcfg.MoveLat(hc, c)); t > start {
						start = t
					}
				}
			}
		}
		done := start + int64(machine.Latency(op.Opcode))
		es.ready[op.ID] = done
		if done > length {
			length = done
		}
		if op.Dst != ir.NoReg {
			es.defGen[op.Dst] = es.gen
			es.lastDef[op.Dst] = op.ID
		}
	}
	// Moves occupy an integer-unit issue slot on their sending cluster.
	for _, key := range es.touched {
		es.counts[es.moveSrc[key]*int(machine.NumFUKinds)+int(machine.FUInt)]++
	}
	for c := 0; c < k; c++ {
		for kind := machine.FUKind(0); kind < machine.NumFUKinds; kind++ {
			cnt := es.counts[c*int(machine.NumFUKinds)+int(kind)]
			if cnt == 0 {
				continue
			}
			units := mcfg.Units(c, kind)
			if units == 0 {
				units = 1
			}
			if rb := int64((cnt + units - 1) / units); rb > length {
				length = rb
			}
		}
	}
	if n := len(es.touched); n > 0 {
		if bb := int64((n+mcfg.MoveBandwidth-1)/mcfg.MoveBandwidth) + int64(es.minLat); bb > length {
			length = bb
		}
	}
	return length
}
