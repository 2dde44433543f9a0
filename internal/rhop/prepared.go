package rhop

import (
	"encoding/binary"
	"slices"
	"sort"

	"mcpart/internal/cfg"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/memo"
	"mcpart/internal/partition"
	"mcpart/internal/profile"
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
// partitioning knobs (cluster count, balance tolerance, edge weighting).
// The memo key encodes exactly those, so a hit returns the partition the
// run would have computed. Move latency and topology never reach the
// min-cut, which is why the memo is shared across machines with the same
// cluster count.
//
// The memo lives in a MinCuts, which may outlive the Prepared: a caller
// can drop the structure between runs and hand the memo to the next
// Prepare of the same function and profile.
//
// A Prepared also holds one exact block-schedule cache per machine (see
// BlockCache); it lives and dies with the Prepared.
//
// Build one with Prepare. A Prepared is safe for concurrent use: its
// structure is immutable after Prepare returns and the memos are
// single-flight memo.Tables.
type Prepared struct {
	f    *ir.Func
	prof *profile.Profile
	lc   *sched.LoopCtx
	pre  []*regionPre // heat order: hottest region first
	// opBlock maps op ID to the index of the op's block within its region
	// (every block belongs to exactly one region), opPos to the op's
	// position in its block.
	opBlock []int32
	opPos   []int32
	cuts    *MinCuts
	blocks  memo.Table[*sched.BlockCache] // by machine.Config.CacheKey
}

// BlockCache returns the function's block-schedule cache for mcfg, shared
// by every machine with the same CacheKey (the key covers every machine
// parameter the scheduler reads) and created on first use. The partitioner
// scores its candidates through it, and callers computing the function's
// final cycle count on the same machine should too: a block both schedule
// under equal inputs is then scheduled once.
func (p *Prepared) BlockCache(mcfg *machine.Config) *sched.BlockCache {
	bc, _, err := p.blocks.Do([]byte(mcfg.CacheKey()), func() (*sched.BlockCache, error) {
		return sched.NewBlockCache(p.f, p.lc, mcfg), nil
	})
	if err != nil { // the build this call waited on panicked
		bc = sched.NewBlockCache(p.f, p.lc, mcfg)
	}
	return bc
}

// MinCuts is one function's min-cut memo: the clusters KWay assigned a
// region's ops, keyed as scratch.cutKey describes (the key starts with the
// region's index in Prepare's heat order). Region order is a deterministic
// function of the function and its profile, so one MinCuts serves every
// Prepare of the same pair — and only that pair. Below the whole-cut memo
// it holds the split memo of the k-way recursion (k > 2 only), whose
// bisections repeat where whole cuts do not: a top split sees only which
// side each lock and anchor is on. The zero value is an empty memo; it is
// safe for concurrent use.
type MinCuts struct {
	cuts  memo.Table[[]uint8]
	split partition.SplitMemo
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

	freqs  []int64     // per region block: profile weight
	liveIn [][]ir.VReg // per region block: read-before-def regs

	// The schedule estimator's static tables (see regionEval). A block's
	// ops are contiguous in regionOps; blockStart gives each block's first
	// region-op index, then len(regionOps). est has one entry per region op
	// and a last one closing the final op's argument range.
	blockStart []int32
	est        []estOp
	// estArgs lists, per region op i (estArgs[est[i].arg:est[i+1].arg]),
	// the register arguments the estimator reads, in order: the region
	// index of the in-block reaching def, or ^reg for a live-in register.
	// Free live-ins (sched.LoopCtx.FreeLiveIn) are left out: the estimator
	// charges them nothing.
	estArgs []int32
	// readers lists, per homeRegs entry ui
	// (readers[readerStart[ui]:readerStart[ui+1]]), the blocks that read the
	// register as a charged live-in, each with the position in the block of
	// its first such read: a change of the register's home can change the
	// estimate of those blocks only, and only from that op on.
	readers     []liveInReader
	readerStart []int32

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

// estOp is one region op as the schedule estimator sees it.
type estOp struct {
	id   int32 // op ID
	lat  int32 // machine.Latency of the opcode
	arg  int32 // first estArgs entry
	home int32 // homeRegs index of the op's Dst if some block reads it charged, else -1
	kind uint8 // machine.FUKind
}

// liveInReader is one block that reads a live-in register, with the
// position in the block of its first charged read of it.
type liveInReader struct {
	block, first int32
}

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
func Prepare(f *ir.Func, prof *profile.Profile, cuts *MinCuts) *Prepared {
	if cuts == nil {
		cuts = &MinCuts{}
	}
	p := &Prepared{f: f, prof: prof, lc: sched.NewLoopCtx(f), cuts: cuts,
		opBlock: make([]int32, f.NOps), opPos: make([]int32, f.NOps)}
	du, ops := cfg.ComputeDefUse(f), f.OpsByID()
	// Partition the hottest regions first: inner loops choose their layout
	// freely and colder surrounding code anchors to those decisions, not
	// the other way around.
	order := cfg.FormRegions(f)
	sort.SliceStable(order, func(i, j int) bool {
		return regionHeat(prof, order[i]) > regionHeat(prof, order[j])
	})
	p.pre = make([]*regionPre, len(order))
	sc := newPrepScratch(f)
	for i, region := range order {
		p.pre[i] = p.newRegionPre(region, du, ops, sc)
	}
	return p
}

func (p *Prepared) newRegionPre(region *cfg.Region, du *cfg.DefUse, ops []*ir.Op, sc *prepScratch) *regionPre {
	pre := &regionPre{region: region}
	sc.region++
	for bi, b := range region.Blocks {
		pre.freqs = append(pre.freqs, blockFreq(p.prof, b))
		for pos, op := range b.Ops {
			sc.nodeAt[op.ID], sc.node[op.ID] = sc.region, int32(len(pre.regionOps))
			pre.regionOps = append(pre.regionOps, op)
			p.opBlock[op.ID], p.opPos[op.ID] = int32(bi), int32(pos)
		}
	}
	if len(pre.regionOps) == 0 {
		return pre
	}
	pre.byID = append([]*ir.Op(nil), pre.regionOps...)
	sort.Slice(pre.byID, func(i, j int) bool { return pre.byID[i].ID < pre.byID[j].ID })

	addExt := func(id int) {
		if sc.extAt[id] != sc.region {
			sc.extAt[id] = sc.region
			pre.extRefs = append(pre.extRefs, int32(id))
		}
	}
	slack, maxSlack := computeSlack(region, du, ops, sc)
	maxSlack = max(maxSlack, 1)
	pre.arcStart = make([]int32, 0, len(pre.regionOps)+1)
	for _, op := range pre.regionOps {
		pre.arcStart = append(pre.arcStart, int32(len(pre.arcs)))
		for _, defs := range du.DefsOf[op.ID] {
			for _, defID := range defs {
				w := max(maxSlack+1-slack[0], 1)
				slack = slack[1:]
				if sc.nodeAt[defID] == sc.region {
					pre.arcs = append(pre.arcs, arc{other: sc.node[defID], w: int32(w), kind: arcIntra})
				} else {
					pre.arcs = append(pre.arcs, arc{other: int32(defID), w: int32(w), kind: arcDef})
					addExt(defID)
				}
			}
		}
		if op.Dst != ir.NoReg {
			for _, useID := range du.UsesOf[op.ID] {
				if sc.nodeAt[useID] != sc.region {
					w := scaleFreq(blockFreq(p.prof, ops[useID].Block))
					pre.arcs = append(pre.arcs, arc{other: int32(useID), w: int32(w), kind: arcUse})
					addExt(useID)
				}
			}
		}
	}
	pre.arcStart = append(pre.arcStart, int32(len(pre.arcs)))

	pre.liveIn = make([][]ir.VReg, len(region.Blocks))
	for i, b := range region.Blocks {
		pre.liveIn[i] = sc.liveIns[b.ID]
	}

	for _, regs := range pre.liveIn {
		for _, r := range regs {
			if sc.regAt[r] == sc.region {
				continue
			}
			sc.regAt[r] = sc.region
			pre.homeRegs = append(pre.homeRegs, r)
			for _, id := range du.DefsOfReg[r] {
				if sc.nodeAt[id] != sc.region && sc.homeAt[id] != sc.region {
					sc.homeAt[id] = sc.region
					pre.extHomeRefs = append(pre.extHomeRefs, int32(id))
				}
			}
		}
	}
	slices.Sort(pre.extHomeRefs)
	slices.Sort(pre.homeRegs)
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
	p.buildEstTables(pre, sc)
	return pre
}

// prepScratch is Prepare's working memory, shared by every region of the
// function. Its stamped entries are current when their stamp is the region
// (or, for the estimator tables, the block) being built, so each region
// and block starts fresh in O(1).
type prepScratch struct {
	// Op tables, by op ID. asap and alap hold computeSlack's in-block
	// start times. Every op is written once, when its block is walked,
	// so an entry not yet written reads 0 without resetting.
	asap, alap []int64
	slack      []int64 // computeSlack's result buffer
	region     int32
	nodeAt     []int32 // stamp of the region whose graph node the op is
	node       []int32 // the op's graph node (region op index)
	extAt      []int32 // stamp of the region whose extRefs hold the op
	homeAt     []int32 // stamp of the region whose extHomeRefs hold the op

	liveIns [][]ir.VReg // sched.BlockLiveIns

	// Register tables, by register.
	regAt   []int32 // stamp of the region whose homeRegs hold the register
	block   int32
	defAt   []int32 // stamp of the block holding lastDef
	lastDef []int32 // region index of its latest def so far
	readAt  []int32 // stamp of the block that already read it charged
}

func newPrepScratch(f *ir.Func) *prepScratch {
	return &prepScratch{
		asap: make([]int64, f.NOps), alap: make([]int64, f.NOps),
		nodeAt: make([]int32, f.NOps), node: make([]int32, f.NOps),
		extAt: make([]int32, f.NOps), homeAt: make([]int32, f.NOps),
		regAt: make([]int32, f.NRegs), defAt: make([]int32, f.NRegs),
		lastDef: make([]int32, f.NRegs), readAt: make([]int32, f.NRegs),
		liveIns: sched.BlockLiveIns(f),
	}
}

// buildEstTables fills pre's estimator tables: blockStart, est, estArgs
// and the live-in readers.
func (p *Prepared) buildEstTables(pre *regionPre, st *prepScratch) {
	n := len(pre.regionOps)
	pre.blockStart = make([]int32, 0, len(pre.region.Blocks)+1)
	pre.est = make([]estOp, n+1)
	type read struct {
		ui int
		liveInReader
	}
	var reads []read
	i := 0
	for bi, b := range pre.region.Blocks {
		st.block++
		pre.blockStart = append(pre.blockStart, int32(i))
		for _, op := range b.Ops {
			pre.est[i] = estOp{id: int32(op.ID), lat: int32(machine.Latency(op.Opcode)),
				arg: int32(len(pre.estArgs)), home: -1, kind: uint8(machine.KindOf(op.Opcode))}
			for _, a := range op.Args {
				if !a.IsReg() {
					continue
				}
				if r := a.Reg; st.defAt[r] == st.block {
					pre.estArgs = append(pre.estArgs, st.lastDef[r])
				} else if !p.lc.FreeLiveIn(b, r) {
					pre.estArgs = append(pre.estArgs, ^int32(r))
					if st.readAt[r] != st.block {
						st.readAt[r] = st.block
						ui, _ := slices.BinarySearch(pre.homeRegs, r)
						reads = append(reads, read{ui, liveInReader{int32(bi), int32(i) - pre.blockStart[bi]}})
					}
				}
			}
			if op.Dst != ir.NoReg {
				st.defAt[op.Dst], st.lastDef[op.Dst] = st.block, int32(i)
			}
			i++
		}
	}
	pre.blockStart = append(pre.blockStart, int32(n))
	pre.est[n].arg = int32(len(pre.estArgs))

	// Group the reads by register, blocks in region order.
	pre.readerStart = make([]int32, len(pre.homeRegs)+1)
	for _, r := range reads {
		pre.readerStart[r.ui+1]++
	}
	for ui := range pre.homeRegs {
		pre.readerStart[ui+1] += pre.readerStart[ui]
	}
	pre.readers = make([]liveInReader, len(reads))
	fill := slices.Clone(pre.readerStart[:len(pre.homeRegs)])
	for _, r := range reads {
		pre.readers[fill[r.ui]] = r.liveInReader
		fill[r.ui]++
	}
	for i, op := range pre.regionOps {
		if op.Dst == ir.NoReg {
			continue
		}
		if ui, ok := slices.BinarySearch(pre.homeRegs, op.Dst); ok && pre.readerStart[ui+1] > pre.readerStart[ui] {
			pre.est[i].home = int32(ui)
		}
	}
}

// liveInHomes fills, in sc.homeT, the home cluster under asg of every
// register a block of the region reads live-in (homeRegs) — the only homes
// the schedule estimator and the list scheduler read for these blocks — and
// returns the table; entries of other registers are stale.
func (pre *regionPre) liveInHomes(sc *scratch, nregs, k int, asg []int) []int {
	if cap(sc.homeT) < nregs {
		sc.homeT = make([]int, nregs)
	}
	if cap(sc.cnt) < k {
		sc.cnt = make([]int64, k)
	}
	home, cnt := sc.homeT[:nregs], sc.cnt[:k]
	for ui, r := range pre.homeRegs {
		home[r] = pre.home(ui, asg, cnt)
	}
	return home
}

// home returns the home cluster of homeRegs[ui] under asg with
// HomeClustersFreq's rule: the cluster carrying the largest def weight,
// ties to the lower index, EverywhereHome when no def is assigned. cnt is
// a k-entry tally buffer.
func (pre *regionPre) home(ui int, asg []int, cnt []int64) int {
	clear(cnt)
	for _, d := range pre.homeDefs[ui] {
		if c := asg[d.id]; c >= 0 {
			cnt[c] += d.w
		}
	}
	h := sched.EverywhereHome
	var best int64
	for c, v := range cnt {
		if v > best {
			best = v
			h = c
		}
	}
	return h
}

// cutKey builds the min-cut memo key of region ri in sc.keyBuf: the
// region index, the partitioning knobs (cluster count, edge weighting),
// one byte per external reference for its current cluster (0 when
// unassigned, so its anchors are absent), then a (uvarint region-op
// index, cluster) pair per locked region op. All but the last
// part have a fixed length per region and the indices increase, so the
// key is injective. Clusters fit one byte: machine.Validate bounds k by
// machine.MaxClusters.
func (sc *scratch) cutKey(ri int, pre *regionPre, k int, opts Options, locks Locks, asg []int) []byte {
	var flags byte
	if opts.UniformEdges {
		flags |= 1
	}
	buf := append(binary.AppendUvarint(sc.keyBuf[:0], uint64(ri)), byte(k), flags)
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

// graphID builds, in sc.idBuf, the identity of region ri's min-cut graph
// for the split memo: the region index, the edge-weighting flag, and one
// byte per external reference, 1 if it is placed and 0 if not. Those fix
// the node set (region ops, then one anchor per placed reference's arc
// kind, in arc order), the node weights and every edge; the anchors'
// homes and the locks reach the memo through the graph's fixed nodes.
func (sc *scratch) graphID(ri int, pre *regionPre, opts Options, asg []int) []byte {
	var flags byte
	if opts.UniformEdges {
		flags |= 1
	}
	buf := append(binary.AppendUvarint(sc.idBuf[:0], uint64(ri)), flags)
	for _, id := range pre.extRefs {
		var placed byte
		if asg[id] >= 0 {
			placed = 1
		}
		buf = append(buf, placed)
	}
	sc.idBuf = buf
	return buf
}
