// Package sched provides the cluster-aware VLIW list scheduler that turns a
// computation partition into cycle counts. Given an assignment of every
// operation to a cluster, it materializes the intercluster move operations a
// clustered machine requires (one move per value per destination cluster,
// i.e. moves are reused by multiple consumers), applies the machine's
// function-unit and bus bandwidth limits, and list-schedules each basic
// block. Whole-program cycles are the profile-weighted sum of block
// schedule lengths, mirroring the paper's 100%-hit-rate scratchpad model.
package sched

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/memo"
	"mcpart/internal/obs"
	"mcpart/internal/profile"
)

// EverywhereHome marks a value as available on every cluster at block entry
// (used for function parameters, whose transfer the model does not charge).
const EverywhereHome = -1

// HomeScratch is the reusable working memory of HomeClustersFreq. Not
// safe for concurrent use — each worker goroutine owns its own.
type HomeScratch struct {
	counts []int64 // reg-major [reg*numClusters + cluster] def weights
	home   []int
}

// HomeClustersFreq computes, per virtual register of f, the cluster a value
// lives on at block boundaries: the dominant cluster among the register's
// defining operations, each weighted by max(1, freq) of its block when freq
// is non-nil and by 1 otherwise (a hot in-loop definition outweighs a
// one-time initialization; ties go to the lower cluster index). Registers
// with no assigned defs (parameters) are available everywhere. The
// returned slice is owned by the scratch and valid only until the next
// call.
func (hs *HomeScratch) HomeClustersFreq(f *ir.Func, asg []int, numClusters int, freq func(*ir.Block) int64) []int {
	n := f.NRegs * numClusters
	if cap(hs.counts) < n {
		hs.counts = make([]int64, n)
	} else {
		hs.counts = hs.counts[:n]
		clear(hs.counts)
	}
	counts := hs.counts
	for _, b := range f.Blocks {
		w := int64(1)
		if freq != nil {
			if fq := freq(b); fq > 1 {
				w = fq
			}
		}
		for _, op := range b.Ops {
			if op.Dst == ir.NoReg || asg[op.ID] < 0 {
				// Unassigned defs (regions not yet partitioned) contribute
				// no home; such values count as available everywhere.
				continue
			}
			counts[int(op.Dst)*numClusters+asg[op.ID]] += w
		}
	}
	if cap(hs.home) < f.NRegs {
		hs.home = make([]int, f.NRegs)
	} else {
		hs.home = hs.home[:f.NRegs]
	}
	home := hs.home
	for r := range home {
		home[r] = EverywhereHome
		var best int64
		for c, cnt := range counts[r*numClusters : (r+1)*numClusters] {
			if cnt > best {
				best = cnt
				home[r] = c
			}
		}
	}
	return home
}

// BlockResult is the outcome of scheduling one basic block.
type BlockResult struct {
	Length  int // schedule length in cycles
	Moves   int // intercluster move operations inserted
	BusBusy int // cycles in which at least one intercluster move issued
}

// node is a schedulable item: a real op or a synthesized intercluster move.
type node struct {
	op      *ir.Op // nil for moves
	cluster int
	to      int // destination cluster of a move; == cluster for ops
	kind    machine.FUKind
	lat     int
	isMove  bool
	preds   []dep
	prio    int64
	start   int
}

type dep struct {
	from int // node index
	lat  int
}

// moveKey identifies one cached intercluster move: per source (local def
// node, or live-in register) and destination cluster.
type moveKey struct {
	srcNode int // -1 when the source is a live-in register
	reg     ir.VReg
	to      int
}

// Scratch holds the list scheduler's reusable working memory. The
// evaluation pipeline schedules the same handful of blocks thousands of
// times while refining partitions, and allocating the node and resource
// tables fresh on every call dominated the profile; a Scratch amortizes
// them across calls. There is deliberately no package-level pool: a
// Scratch is not safe for concurrent use, so each worker goroutine of the
// parallel evaluation layers owns its own, keeping the hot paths
// race-free by construction.
type Scratch struct {
	nodes []node // arena; preds capacity survives reuse

	// buildNodes tables, dense by virtual register and generation-stamped
	// so resetting costs O(1) instead of O(NRegs) per block.
	gen       int64
	defGen    []int64
	lastDef   []int
	useGen    []int64
	lastUses  [][]int
	memNodes  []int
	moveIdx   map[moveKey]int
	hoistSeen map[[2]int]bool

	// listSchedule tables.
	succs    [][]dep
	npreds   []int
	earliest []int
	indeg    []int
	order    []int
	cand     []int // unissued nodes whose predecessors have all issued
	ready    []int
	usage    []int // issues this cycle, [cluster][kind] flattened

	fnSeen map[HoistedMove]bool // funcCycles' distinct hoisted copies
	keyBuf []byte               // BlockCache keys

	// lastBusBusy is the bus-occupied cycle count of the most recent
	// listSchedule call, tracked incrementally at move-issue time so the
	// nil-observer path pays no extra scan.
	lastBusBusy int

	// Observer counters flushed by FuncCycles (nil when detached). Only
	// the evaluation layer's final-cycle scratch carries them; the
	// refinement searches in rhop use plain scratches, so the metrics
	// reflect reported schedules, not search traffic.
	oCycles, oMoves, oBusBusy, oHoisted *obs.Counter

	home HomeScratch
}

// SetObserver attaches o's registry to the scratch: every later
// FuncCycles call adds its profile-weighted totals to the sched_cycles,
// sched_moves, sched_bus_busy_cycles and sched_hoisted_moves counters.
// A nil observer detaches.
func (sc *Scratch) SetObserver(o *obs.Observer) {
	if o == nil {
		sc.oCycles, sc.oMoves, sc.oBusBusy, sc.oHoisted = nil, nil, nil, nil
		return
	}
	sc.oCycles = o.Counter("sched_cycles")
	sc.oMoves = o.Counter("sched_moves")
	sc.oBusBusy = o.Counter("sched_bus_busy_cycles")
	sc.oHoisted = o.Counter("sched_hoisted_moves")
}

// NewScratch returns an empty scratch; buffers grow on demand and are
// reused by subsequent calls.
func NewScratch() *Scratch {
	return &Scratch{
		moveIdx:   map[moveKey]int{},
		hoistSeen: map[[2]int]bool{},
	}
}

// newNode appends a zeroed node to the arena, preserving the pred-slice
// capacity left over from earlier blocks.
func (sc *Scratch) newNode() int {
	if len(sc.nodes) < cap(sc.nodes) {
		sc.nodes = sc.nodes[:len(sc.nodes)+1]
		nd := &sc.nodes[len(sc.nodes)-1]
		preds := nd.preds[:0]
		*nd = node{preds: preds}
	} else {
		sc.nodes = append(sc.nodes, node{})
	}
	return len(sc.nodes) - 1
}

// regTables sizes the per-register tables for f and starts a fresh
// generation.
func (sc *Scratch) regTables(f *ir.Func) {
	if len(sc.defGen) < f.NRegs {
		sc.defGen = make([]int64, f.NRegs)
		sc.lastDef = make([]int, f.NRegs)
		sc.useGen = make([]int64, f.NRegs)
		sc.lastUses = make([][]int, f.NRegs)
	}
	sc.gen++
}

// AssignError reports an operation assigned to a cluster that has no
// function unit able to execute it — such an op could never issue and the
// list scheduler would stall forever.
type AssignError struct {
	Func    string
	Block   int
	Op      *ir.Op
	Cluster int
	Kind    machine.FUKind
}

func (e *AssignError) Error() string {
	return fmt.Sprintf("sched: %s b%d: op %s assigned to cluster %d, which has no %s units",
		e.Func, e.Block, e.Op, e.Cluster, e.Kind)
}

// CheckAssignable verifies that every op of f lands on a cluster with at
// least one unit of its kind under asg, and that the assignment covers the
// function. It is the recoverable front door for externally supplied
// assignments (mcpart.FormatSchedule, the validator): callers that might
// hold an invalid assignment check here and get an error, so the
// scheduler's internal stall panic stays a pure invariant.
func CheckAssignable(f *ir.Func, asg []int, cfg *machine.Config) error {
	if len(asg) < f.NOps {
		return fmt.Errorf("sched: %s: assignment covers %d of %d ops", f.Name, len(asg), f.NOps)
	}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			c := asg[op.ID]
			if c < 0 || c >= cfg.NumClusters() {
				return fmt.Errorf("sched: %s b%d: op %s assigned to cluster %d of %d",
					f.Name, b.ID, op, c, cfg.NumClusters())
			}
			if k := machine.KindOf(op.Opcode); cfg.Units(c, k) == 0 {
				return &AssignError{Func: f.Name, Block: b.ID, Op: op, Cluster: c, Kind: k}
			}
		}
	}
	return nil
}

// ScheduleBlockCtx schedules block b under assignment asg (op ID ->
// cluster for b's function), with home giving the block-entry cluster of
// live-in registers (EverywhereHome when free), and returns the schedule
// length and the number of moves inserted. Live-in values that are
// invariant in b's innermost loop are assumed delivered at loop entry (the
// returned HoistedMoves) instead of re-sent every iteration; a nil LoopCtx
// disables hoisting.
func (sc *Scratch) ScheduleBlockCtx(b *ir.Block, asg []int, home []int, lc *LoopCtx, cfg *machine.Config) (BlockResult, []HoistedMove) {
	for _, op := range b.Ops {
		c := asg[op.ID]
		if k := machine.KindOf(op.Opcode); cfg.Units(c, k) == 0 {
			// Invariant: the computation partitioner only assigns ops to
			// clusters with units of their kind, and external assignments
			// are pre-validated via CheckAssignable — an unexecutable op
			// here means a partitioner bug, not bad input.
			panic(&AssignError{Func: b.Func.Name, Block: b.ID, Op: op, Cluster: c, Kind: k})
		}
	}
	hoisted := sc.buildNodes(b, asg, home, lc, cfg)
	if len(sc.nodes) == 0 {
		return BlockResult{Length: 1}, hoisted
	}
	length := sc.listSchedule(cfg)
	moves := 0
	for i := range sc.nodes {
		if sc.nodes[i].isMove {
			moves++
		}
	}
	return BlockResult{Length: length, Moves: moves, BusBusy: sc.lastBusBusy}, hoisted
}

// buildNodes fills sc.nodes with b's ops plus the intercluster moves the
// assignment requires, and returns the hoisted loop-invariant copies.
func (sc *Scratch) buildNodes(b *ir.Block, asg []int, home []int, lc *LoopCtx, cfg *machine.Config) []HoistedMove {
	sc.nodes = sc.nodes[:0]
	sc.memNodes = sc.memNodes[:0]
	if sc.moveIdx == nil {
		sc.moveIdx = map[moveKey]int{}
		sc.hoistSeen = map[[2]int]bool{}
	}
	clear(sc.moveIdx)
	clear(sc.hoistSeen)
	sc.regTables(b.Func)

	var hoisted []HoistedMove
	// Node i of the first len(b.Ops) entries is b.Ops[i]; moves follow.
	for _, op := range b.Ops {
		i := sc.newNode()
		nd := &sc.nodes[i]
		nd.op = op
		nd.cluster = asg[op.ID]
		nd.to = nd.cluster
		nd.kind = machine.KindOf(op.Opcode)
		nd.lat = machine.Latency(op.Opcode)
	}
	addDep := func(to, from, lat int) {
		sc.nodes[to].preds = append(sc.nodes[to].preds, dep{from: from, lat: lat})
	}
	// Value flow with move insertion. moveIdx caches one move per source
	// (local def node, or live-in register) and destination cluster.
	getMove := func(k moveKey, srcCluster, srcLat int) int {
		if mi, ok := sc.moveIdx[k]; ok {
			return mi
		}
		mi := sc.newNode()
		nd := &sc.nodes[mi]
		nd.cluster = srcCluster // moves issue on the sending cluster
		nd.to = k.to
		nd.kind = machine.FUInt
		nd.lat = cfg.MoveLat(srcCluster, k.to)
		nd.isMove = true
		if k.srcNode >= 0 {
			addDep(mi, k.srcNode, srcLat)
		}
		sc.moveIdx[k] = mi
		return mi
	}

	// lastDef/lastUses are generation-stamped: a stale stamp means "no
	// entry", replacing the per-block map allocations.
	defOf := func(r ir.VReg) (int, bool) {
		if sc.defGen[r] == sc.gen {
			return sc.lastDef[r], true
		}
		return 0, false
	}
	usesOf := func(r ir.VReg) []int {
		if sc.useGen[r] == sc.gen {
			return sc.lastUses[r]
		}
		return nil
	}

	for ni, op := range b.Ops {
		uc := sc.nodes[ni].cluster
		for _, a := range op.Args {
			if !a.IsReg() {
				continue
			}
			if d, ok := defOf(a.Reg); ok {
				// Local flow dependence.
				dc := sc.nodes[d].cluster
				if dc == uc {
					addDep(ni, d, sc.nodes[d].lat)
				} else {
					mi := getMove(moveKey{srcNode: d, to: uc}, dc, sc.nodes[d].lat)
					addDep(ni, mi, cfg.MoveLat(dc, uc))
				}
			} else {
				// Live-in value.
				hc := EverywhereHome
				if int(a.Reg) < len(home) {
					hc = home[a.Reg]
				}
				if hc != EverywhereHome && hc != uc {
					if lc != nil && lc.FreeLiveIn(b, a.Reg) {
						// Delivered once per loop entry, not per
						// iteration.
						key := [2]int{int(a.Reg), uc}
						if !sc.hoistSeen[key] {
							sc.hoistSeen[key] = true
							hoisted = append(hoisted, HoistedMove{
								Loop: lc.InnermostLoop(b), Reg: a.Reg, To: uc,
							})
						}
					} else {
						mi := getMove(moveKey{srcNode: -1, reg: a.Reg, to: uc}, hc, 0)
						addDep(ni, mi, cfg.MoveLat(hc, uc))
					}
				}
			}
			if sc.useGen[a.Reg] != sc.gen {
				sc.useGen[a.Reg] = sc.gen
				sc.lastUses[a.Reg] = sc.lastUses[a.Reg][:0]
			}
			sc.lastUses[a.Reg] = append(sc.lastUses[a.Reg], ni)
		}
		if op.Dst != ir.NoReg {
			// Anti dependences: a redefinition must not issue before prior
			// uses; output dependence on a prior def of the same register.
			for _, u := range usesOf(op.Dst) {
				if u != ni {
					addDep(ni, u, 0)
				}
			}
			if d, ok := defOf(op.Dst); ok && d != ni {
				addDep(ni, d, 1)
			}
			sc.defGen[op.Dst] = sc.gen
			sc.lastDef[op.Dst] = ni
			sc.useGen[op.Dst] = sc.gen
			sc.lastUses[op.Dst] = sc.lastUses[op.Dst][:0]
		}
		// Memory and call ordering.
		if op.Opcode.IsMem() || op.Opcode == ir.OpCall {
			for _, pj := range sc.memNodes {
				if memConflict(sc.nodes[pj].op, op) {
					addDep(ni, pj, 1)
				}
			}
			sc.memNodes = append(sc.memNodes, ni)
		}
	}
	return hoisted
}

// memConflict reports whether two memory/call operations must stay ordered:
// calls conflict with everything; load-load pairs never conflict; other
// pairs conflict when their may-access sets intersect (unknown sets are
// conservative).
func memConflict(a, b *ir.Op) bool {
	if a.Opcode == ir.OpCall || b.Opcode == ir.OpCall {
		return true
	}
	if a.Opcode == ir.OpLoad && b.Opcode == ir.OpLoad {
		return false
	}
	if a.Opcode == ir.OpMalloc && b.Opcode == ir.OpMalloc {
		return false
	}
	if len(a.MayAccess) == 0 || len(b.MayAccess) == 0 {
		return true
	}
	i, j := 0, 0
	for i < len(a.MayAccess) && j < len(b.MayAccess) {
		switch {
		case a.MayAccess[i] == b.MayAccess[j]:
			return true
		case a.MayAccess[i] < b.MayAccess[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// resizeInts re-slices an int per-node table to n zeroed entries.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// listSchedule performs resource-constrained list scheduling over sc.nodes
// and returns the schedule length. Each cycle considers, in (priority
// desc, index asc) order, the candidates whose earliest start has come: a
// node becomes a candidate when its last predecessor issues and can issue
// from the next cycle on. A node's start is -1 until it issues.
func (sc *Scratch) listSchedule(cfg *machine.Config) int {
	n := len(sc.nodes)
	if cap(sc.succs) < n {
		sc.succs = make([][]dep, n)
	}
	sc.succs = sc.succs[:n]
	for i := range sc.succs {
		sc.succs[i] = sc.succs[i][:0]
	}
	sc.npreds = resizeInts(sc.npreds, n)
	for i := range sc.nodes {
		nd := &sc.nodes[i]
		sc.npreds[i] = len(nd.preds)
		for _, p := range nd.preds {
			sc.succs[p.from] = append(sc.succs[p.from], dep{from: i, lat: p.lat})
		}
	}
	// Priority: longest path (sum of latencies) from the node to any sink.
	order := sc.topoOrder()
	for i := n - 1; i >= 0; i-- {
		nd := &sc.nodes[order[i]]
		nd.prio = int64(nd.lat)
		for _, s := range sc.succs[order[i]] {
			if p := int64(s.lat) + sc.nodes[s.from].prio; p > nd.prio {
				nd.prio = p
			}
		}
	}

	sc.earliest = resizeInts(sc.earliest, n)
	cand := sc.cand[:0]
	for i := range sc.nodes {
		sc.nodes[i].start = -1
		if sc.npreds[i] == 0 {
			cand = append(cand, i)
		}
	}
	byPrio := func(a, b int) int {
		if c := cmp.Compare(sc.nodes[b].prio, sc.nodes[a].prio); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	// Only the current cycle's unit usage is ever consulted, so one
	// [cluster][kind] row serves every cycle.
	stride := cfg.NumClusters() * int(machine.NumFUKinds)
	sc.usage = resizeInts(sc.usage, stride)
	length := 1
	busBusy := 0
	for t, unscheduled := 0, n; unscheduled > 0; t++ {
		clear(sc.usage)
		bus := 0
		// Drop the candidates that issued last cycle; gather the ready ones.
		ready := sc.ready[:0]
		w := 0
		for _, i := range cand {
			if sc.nodes[i].start >= 0 {
				continue
			}
			cand[w] = i
			w++
			if sc.earliest[i] <= t {
				ready = append(ready, i)
			}
		}
		cand = cand[:w]
		slices.SortFunc(ready, byPrio)
		sc.ready = ready
		for _, i := range ready {
			nd := &sc.nodes[i]
			slot := &sc.usage[nd.cluster*int(machine.NumFUKinds)+int(nd.kind)]
			if *slot >= cfg.Units(nd.cluster, nd.kind) {
				continue
			}
			if nd.isMove && bus >= cfg.MoveBandwidth {
				continue
			}
			*slot++
			if nd.isMove {
				if bus == 0 {
					busBusy++
				}
				bus++
			}
			nd.start = t
			unscheduled--
			if end := t + nd.lat; end > length {
				length = end
			}
			for _, s := range sc.succs[i] {
				if sc.npreds[s.from]--; sc.npreds[s.from] == 0 {
					cand = append(cand, s.from)
				}
				if e := t + s.lat; e > sc.earliest[s.from] {
					sc.earliest[s.from] = e
				}
			}
		}
	}
	sc.cand = cand
	sc.lastBusBusy = busBusy
	return length
}

// topoOrder returns sc.nodes in topological order (the order slice doubles
// as the BFS queue, so the visit order matches a FIFO worklist).
func (sc *Scratch) topoOrder() []int {
	n := len(sc.nodes)
	sc.indeg = resizeInts(sc.indeg, n)
	for i := range sc.nodes {
		sc.indeg[i] = len(sc.nodes[i].preds)
	}
	order := sc.order[:0]
	for i := 0; i < n; i++ {
		if sc.indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, s := range sc.succs[u] {
			sc.indeg[s.from]--
			if sc.indeg[s.from] == 0 {
				order = append(order, s.from)
			}
		}
	}
	sc.order = order
	return order
}

// Cost is one function's contribution to the program-level objective: the
// profile-weighted dynamic cycle and move counts FuncCycles returns, as a
// value the mapping sweep can store per (function, lock signature) and
// delta-accumulate.
type Cost struct {
	Cycles int64
	Moves  int64
}

// FuncCycles computes one function's contribution to the program's cycle
// count: the profile-weighted dynamic cycle and move counts of bc's
// function under assignment asg, with profile-weighted value homes
// (HomeClustersFreq) and every block schedule taken through bc. Each
// distinct hoisted loop-entry copy costs one move and one cycle per entry
// of its loop. A program's cycle count is the sum over its functions,
// which is what lets the evaluation layer cache schedule costs per
// (function, assignment) pair (see internal/memo). One call visits each
// block once, so with a fresh cache it schedules every block exactly once.
func (sc *Scratch) FuncCycles(bc *BlockCache, asg []int, prof *profile.Profile) (cycles, moves int64) {
	f, lc := bc.f, bc.lc
	home := sc.home.HomeClustersFreq(f, asg, bc.cfg.NumClusters(), prof.Freq)
	var busBusy, hoistedMoves int64
	if sc.fnSeen == nil {
		sc.fnSeen = map[HoistedMove]bool{}
	}
	clear(sc.fnSeen)
	for _, b := range f.Blocks {
		br, hoisted := bc.Schedule(sc, b, asg, home)
		if freq := prof.Freq(b); freq > 0 {
			cycles += freq * int64(br.Length)
			moves += freq * int64(br.Moves)
			busBusy += freq * int64(br.BusBusy)
		}
		for _, h := range hoisted {
			if !sc.fnSeen[h] {
				sc.fnSeen[h] = true
				entries := lc.EntryFreq(h.Loop, prof.Freq)
				moves += entries
				cycles += entries
				hoistedMoves += entries
			}
		}
	}
	if sc.oCycles != nil {
		sc.oCycles.Add(cycles)
		sc.oMoves.Add(moves)
		sc.oBusBusy.Add(busBusy)
		sc.oHoisted.Add(hoistedMoves)
	}
	return cycles, moves
}

// BlockLiveIns returns, by block ID, the registers each block of f reads
// before (re)defining them locally — exactly the registers whose home
// cluster ScheduleBlockCtx consults — in first-read order (nil for a block
// reading none). The lists share one backing array.
func BlockLiveIns(f *ir.Func) [][]ir.VReg {
	out := make([][]ir.VReg, len(f.Blocks))
	nargs := 0
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			nargs += len(op.Args)
		}
	}
	regs := make([]ir.VReg, 0, nargs)
	// A register is defined (read) in the block being walked while its
	// defAt (readAt) entry holds the block's stamp.
	defAt, readAt := make([]int32, f.NRegs), make([]int32, f.NRegs)
	for bi, b := range f.Blocks {
		stamp, start := int32(bi+1), len(regs)
		for _, op := range b.Ops {
			for _, a := range op.Args {
				if r := a.Reg; a.IsReg() && defAt[r] != stamp && readAt[r] != stamp {
					readAt[r] = stamp
					regs = append(regs, r)
				}
			}
			if op.Dst != ir.NoReg {
				defAt[op.Dst] = stamp
			}
		}
		if len(regs) > start {
			out[b.ID] = regs[start:len(regs):len(regs)]
		}
	}
	return out
}

// BlockCache memoizes ScheduleBlockCtx outcomes for one function, loop
// context and machine across assignments. A block's schedule reads only
// the assignments of its own ops and the homes of its read-before-def
// (live-in) registers — buildNodes consults nothing else — so the key
// (block ID, then one byte per op cluster and per live-in home; clusters
// fit a byte because machine.Validate bounds the count by
// machine.MaxClusters) covers every input exactly. The candidates a partitioner scores, the lock
// signatures a sweep evaluates and the final cycle counts of different
// schemes mostly leave a block's local inputs untouched, so they hit.
//
// A BlockCache is safe for concurrent use: callers build keys in their own
// Scratch, and callers that miss on one key at once schedule it once.
type BlockCache struct {
	f      *ir.Func
	lc     *LoopCtx
	cfg    *machine.Config
	liveIn [][]ir.VReg // by block ID: BlockLiveIns

	m memo.Table[blockCacheEnt]
}

type blockCacheEnt struct {
	br      BlockResult
	hoisted []HoistedMove
}

// NewBlockCache returns an empty cache for f's blocks scheduled with loop
// context lc (nil disables hoisting, as in ScheduleBlockCtx) on cfg.
func NewBlockCache(f *ir.Func, lc *LoopCtx, cfg *machine.Config) *BlockCache {
	return &BlockCache{f: f, lc: lc, cfg: cfg, liveIn: BlockLiveIns(f)}
}

// Schedule returns ScheduleBlockCtx(b, asg, home, lc, cfg) for the cache's
// loop context and machine, scheduling with sc only on a miss. The hoisted
// slice is shared with the cache and must not be modified.
func (bc *BlockCache) Schedule(sc *Scratch, b *ir.Block, asg, home []int) (BlockResult, []HoistedMove) {
	buf := binary.AppendUvarint(sc.keyBuf[:0], uint64(b.ID))
	for _, op := range b.Ops {
		buf = append(buf, byte(asg[op.ID]+1))
	}
	for _, r := range bc.liveIn[b.ID] {
		h := EverywhereHome
		if int(r) < len(home) {
			h = home[r]
		}
		buf = append(buf, byte(h+2))
	}
	sc.keyBuf = buf
	schedule := func() (ent blockCacheEnt, _ error) {
		ent.br, ent.hoisted = sc.ScheduleBlockCtx(b, asg, home, bc.lc, bc.cfg)
		return ent, nil
	}
	ent, _, err := bc.m.Do(buf, schedule)
	if err != nil { // the schedule this call waited on panicked
		ent, _ = schedule()
	}
	return ent.br, ent.hoisted
}
