package rhop

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"mcpart/internal/cfg"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/sched"
)

// Prepared is one function's machine-independent partitioning state: the
// loop context, the heat-ordered regions with their slack-weighted static
// dependence graphs and live-in/anchor tables, and a memo of min-cut
// results. Everything in it is a function of the function and its profile
// alone — dependence slack reads only opcode latencies — so one Prepared
// serves every partitioning of the function on every machine, under every
// lock map.
//
// The min-cut memo is exact. The graph a region hands to partition.KWay is
// its static graph plus three per-call inputs: the locks on the region's
// ops, the clusters of the already-placed ops outside the region that
// anchor its live-in and live-out values (regionPre.extRefs), and the
// partitioning knobs (cluster count, balance tolerance, edge weighting,
// partitioner path). The memo key encodes exactly those, so a hit returns
// the partition the run would have computed. Move latency and topology
// never reach the min-cut, which is why the memo is shared across
// machines with the same cluster count.
//
// The memo lives in a MinCuts, which may outlive the Prepared: a caller
// can drop the structure between runs and hand the memo to the next
// Prepare of the same function and profile.
//
// Build one with Prepare. A Prepared is safe for concurrent use: its
// structure is immutable after Prepare returns and the memo is guarded by
// a mutex.
type Prepared struct {
	f    *ir.Func
	prof *interp.Profile
	lc   *sched.LoopCtx
	pre  []*regionPre // heat order: hottest region first
	// opBlock maps op ID to the index of the op's block within its region
	// (every block belongs to exactly one region).
	opBlock []int32
	cuts    *MinCuts
}

// MinCuts is one function's min-cut memo: the clusters KWay assigned a
// region's ops, keyed as scratch.cutKey describes (the key starts with the
// region's index in Prepare's heat order). Region order is a deterministic
// function of the function and its profile, so one MinCuts serves every
// Prepare of the same pair — and only that pair. The zero value is an
// empty memo; it is safe for concurrent use.
type MinCuts struct {
	mu   sync.Mutex
	cuts map[string][]uint8
}

// get returns the memoized min-cut for key, or nil.
func (m *MinCuts) get(key []byte) []uint8 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cuts[string(key)]
}

// put records a min-cut result. Concurrent misses on one key store equal
// values, so the last write wins harmlessly.
func (m *MinCuts) put(key string, part []uint8) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cuts == nil {
		m.cuts = map[string][]uint8{}
	}
	m.cuts[key] = part
}

// regionPre is one region's share of a Prepared: its ops, its static
// dependence graph, per-block profile weights and live-in registers, the
// external def/use sites whose clusters anchor its min-cut graph, and the
// live-in home tables the real-cost scorer reads. All of it is fixed at
// Prepare time.
type regionPre struct {
	region    *cfg.Region
	regionOps []*ir.Op // block order; an op's graph node is its index here
	byID      []*ir.Op // regionOps sorted by op ID (the refinement order)

	// arcs lists, per region op i (arcs[arcStart[i]:arcStart[i+1]]), the
	// dependence arcs the min-cut graph builder visits for it, in visiting
	// order: one per reaching def of each argument, then one per consumer
	// outside the region of its result.
	arcs     []arc
	arcStart []int32

	freqs     []int64             // per region block: profile weight
	liveIn    [][]ir.VReg         // per region block: read-before-def regs
	regBlocks map[ir.VReg][]int32 // reg -> region blocks with reg in liveIn

	// extRefs lists the distinct `other` ops of the external arcs, in
	// first-arc order: the ops outside the region whose clusters shape the
	// min-cut graph.
	extRefs []int32
	// extHomeRefs lists, sorted, the ops outside the region that define a
	// live-in register of its blocks — the only out-of-region assignments
	// the real-cost scorer's home computation can observe. homeRegs is the
	// sorted union of the blocks' live-in registers, and homeDefs gives per
	// register its defining ops with HomeClustersFreq's max(1, freq) block
	// weights, so the scorer computes exactly the homes it reads.
	extHomeRefs []int32
	homeRegs    []ir.VReg
	homeDefs    [][]homeDef
}

// arc is one static dependence arc of a region op. For arcIntra, other is
// the graph node (region op index) of the defining op; for arcDef and
// arcUse it is the op ID of the def or consumer outside the region, which
// becomes an anchor when that op is already placed. w is the slack weight
// max(1, maxSlack+1-slack) for argument arcs (the graph builder scales it
// by the op's block frequency) and the consumer block's scaled frequency
// for arcUse.
type arc struct {
	other int32
	w     int32
	kind  uint8
}

const (
	arcIntra uint8 = iota // def inside the region feeding an argument
	arcDef                // def outside the region feeding an argument
	arcUse                // consumer outside the region of the op's result
)

// homeDef is one defining op of a live-in register, with the frequency
// weight HomeClustersFreq would give it.
type homeDef struct {
	id int32
	w  int64
}

// Prepare builds f's machine-independent partitioning state. prof supplies
// block frequencies (nil-safe: missing blocks count as frequency 1). cuts
// is the min-cut memo to use: one that earlier Prepares of the same f and
// prof filled, or nil for a fresh private one.
func Prepare(f *ir.Func, prof *interp.Profile, cuts *MinCuts) *Prepared {
	if cuts == nil {
		cuts = &MinCuts{}
	}
	p := &Prepared{f: f, prof: prof, lc: sched.NewLoopCtx(f), opBlock: make([]int32, f.NOps), cuts: cuts}
	du, ops := cfg.ComputeDefUse(f), f.OpsByID()
	// Partition the hottest regions first: inner loops choose their layout
	// freely and colder surrounding code anchors to those decisions, not
	// the other way around.
	order := cfg.FormRegions(f)
	sort.SliceStable(order, func(i, j int) bool {
		return regionHeat(prof, order[i]) > regionHeat(prof, order[j])
	})
	p.pre = make([]*regionPre, len(order))
	for i, region := range order {
		p.pre[i] = p.newRegionPre(region, du, ops)
	}
	return p
}

func (p *Prepared) newRegionPre(region *cfg.Region, du *cfg.DefUse, ops []*ir.Op) *regionPre {
	pre := &regionPre{region: region}
	idx := map[int]int32{} // op ID -> graph node
	for bi, b := range region.Blocks {
		pre.freqs = append(pre.freqs, blockFreq(p.prof, b))
		for _, op := range b.Ops {
			idx[op.ID] = int32(len(pre.regionOps))
			pre.regionOps = append(pre.regionOps, op)
			p.opBlock[op.ID] = int32(bi)
		}
	}
	if len(pre.regionOps) == 0 {
		return pre
	}
	pre.byID = append([]*ir.Op(nil), pre.regionOps...)
	sort.Slice(pre.byID, func(i, j int) bool { return pre.byID[i].ID < pre.byID[j].ID })

	ext := map[int]bool{}
	addExt := func(id int) {
		if !ext[id] {
			ext[id] = true
			pre.extRefs = append(pre.extRefs, int32(id))
		}
	}
	slack := computeSlack(region, du, ops)
	maxSlack := int64(1)
	for _, s := range slack {
		if s > maxSlack {
			maxSlack = s
		}
	}
	pre.arcStart = make([]int32, 0, len(pre.regionOps)+1)
	for _, op := range pre.regionOps {
		pre.arcStart = append(pre.arcStart, int32(len(pre.arcs)))
		for argI := range op.Args {
			for _, defID := range du.DefsOf[op.ID][argI] {
				w := maxSlack + 1 - slack[edgeKey{defID, op.ID}]
				if w < 1 {
					w = 1
				}
				if node, ok := idx[defID]; ok {
					pre.arcs = append(pre.arcs, arc{other: node, w: int32(w), kind: arcIntra})
				} else {
					pre.arcs = append(pre.arcs, arc{other: int32(defID), w: int32(w), kind: arcDef})
					addExt(defID)
				}
			}
		}
		if op.Dst != ir.NoReg {
			for _, useID := range du.UsesOf[op.ID] {
				if _, ok := idx[useID]; !ok {
					w := scaleFreq(blockFreq(p.prof, ops[useID].Block))
					pre.arcs = append(pre.arcs, arc{other: int32(useID), w: int32(w), kind: arcUse})
					addExt(useID)
				}
			}
		}
	}
	pre.arcStart = append(pre.arcStart, int32(len(pre.arcs)))

	pre.liveIn = make([][]ir.VReg, len(region.Blocks))
	pre.regBlocks = map[ir.VReg][]int32{}
	for i, b := range region.Blocks {
		pre.liveIn[i] = blockLiveIn(b)
		for _, r := range pre.liveIn[i] {
			pre.regBlocks[r] = append(pre.regBlocks[r], int32(i))
		}
	}

	seen := map[int]bool{}
	seenReg := map[ir.VReg]bool{}
	for _, regs := range pre.liveIn {
		for _, r := range regs {
			if seenReg[r] {
				continue
			}
			seenReg[r] = true
			pre.homeRegs = append(pre.homeRegs, r)
			for _, id := range du.DefsOfReg[r] {
				if _, in := idx[id]; !in && !seen[id] {
					seen[id] = true
					pre.extHomeRefs = append(pre.extHomeRefs, int32(id))
				}
			}
		}
	}
	sort.Slice(pre.extHomeRefs, func(i, j int) bool { return pre.extHomeRefs[i] < pre.extHomeRefs[j] })
	sort.Slice(pre.homeRegs, func(i, j int) bool { return pre.homeRegs[i] < pre.homeRegs[j] })
	pre.homeDefs = make([][]homeDef, len(pre.homeRegs))
	for i, r := range pre.homeRegs {
		for _, id := range du.DefsOfReg[r] {
			w := int64(1)
			if fq := blockFreq(p.prof, ops[id].Block); fq > 1 {
				w = fq
			}
			pre.homeDefs[i] = append(pre.homeDefs[i], homeDef{id: int32(id), w: w})
		}
	}
	return pre
}

// cutKey builds the min-cut memo key of region ri in sc.keyBuf: the
// region index, the partitioning knobs (cluster count, edge weighting,
// partitioner path, balance tolerance), one byte per external reference
// for its current cluster (0 when unassigned, so its anchors are absent),
// then a (uvarint region-op index, cluster) pair per locked region op. All
// but the last part have a fixed length per region and the indices
// increase, so the key is injective. Clusters fit one byte: machine
// configs bound k well below 255.
func (sc *scratch) cutKey(ri int, pre *regionPre, k int, opts Options, locks Locks, asg []int) []byte {
	var flags byte
	if opts.UniformEdges {
		flags |= 1
	}
	buf := append(binary.AppendUvarint(sc.keyBuf[:0], uint64(ri)), byte(k), flags)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(opts.tol()))
	for _, id := range pre.extRefs {
		buf = append(buf, byte(asg[id]+1))
	}
	if len(locks) > 0 {
		for i, op := range pre.regionOps {
			if c, ok := locks[op.ID]; ok {
				buf = append(binary.AppendUvarint(buf, uint64(i)), byte(c))
			}
		}
	}
	sc.keyBuf = buf
	return buf
}
