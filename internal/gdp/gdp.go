// Package gdp implements the paper's primary contribution: Global Data
// Partitioning (§3). It builds a program-level data-flow graph of the whole
// application, coarsens it with access-pattern merges (objects reachable
// from one memory operation merge together; memory operations sharing an
// object merge together, §3.3.1), and partitions the coarsened graph with
// the multilevel multi-constraint partitioner, balancing data bytes across
// cluster memories while minimizing cut data-flow edges (§3.3.2). The
// resulting object-to-cluster map is handed to the second pass (rhop) as
// memory-operation locks (§3.4).
package gdp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"mcpart/internal/cfg"
	"mcpart/internal/defaults"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/memo"
	"mcpart/internal/obs"
	"mcpart/internal/partition"
	"mcpart/internal/profile"
	"mcpart/internal/rhop"
)

// DataMap assigns each data object (by ID) a home cluster.
type DataMap []int

// Options tunes the data partitioner.
type Options struct {
	// MemTol is the imbalance tolerance on data bytes per cluster
	// (default 0.10; the paper's §4.3 notes this knob trades balance for
	// performance).
	MemTol float64
	// MemFractions gives each cluster's target share of total data bytes
	// (nil = equal shares) — the paper's parameterized balance for
	// asymmetric cluster memories (§3.3.2). Length must equal the cluster
	// count when set.
	MemFractions []float64
	// BalanceOps adds a second balance constraint on computation weight
	// (ablation; the paper balances only data bytes — §3.3.2 — and lets
	// the second pass balance operations, and adding this constraint
	// forces serial programs to split and drags their data apart).
	BalanceOps bool
	// NoMerge disables access-pattern merging (ablation).
	NoMerge bool
	// NoSinkWeighting disables the down-weighting of dataflow edges whose
	// consumer is a store (ablation). Store inputs are latency-tolerant
	// sinks — feeding a store on a remote cluster only costs bus
	// bandwidth, while a remote load result stalls its consumers — so by
	// default those edges weigh 1/4 as much in the program-level graph.
	NoSinkWeighting bool
	// SlackMerge additionally merges single-consumer dependence chains
	// before partitioning — approximating the "merge dependent operations
	// with low slack" variant the paper evaluated and rejected (§3.3.1).
	SlackMerge bool
	// Obs, when non-nil, records the data-partitioning metrics
	// (gdp_partitions, gdp_groups, gdp_cut_weight) and is threaded into
	// the graph partitioner for its fm_* metrics. Nil costs nothing.
	Obs *obs.Observer
}

func (o Options) memTol() float64 { return defaults.Float(o.MemTol, 0.10) }

// opTol is the computation-weight tolerance when BalanceOps is set.
const opTol = 0.60

// Result is the outcome of global data partitioning.
type Result struct {
	DataMap DataMap
	// Groups lists the access-pattern-merged object groups (each a sorted
	// slice of object IDs); every object appears in exactly one group.
	// Results served by one DataPartitions share Groups and GroupBytes, so
	// callers must not modify them.
	Groups [][]int
	// GroupBytes is the total profiled byte size per group.
	GroupBytes []int64
	// CutWeight is the data-flow edge weight cut by the chosen partition.
	CutWeight int64
}

// unionFind is a standard disjoint-set structure over dense int keys.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

// opKey gives each op a dense program-wide index after the objects.
type opIndexer struct {
	base   map[*ir.Func]int
	nTotal int
}

func indexOps(m *ir.Module, nObjects int) *opIndexer {
	oi := &opIndexer{base: make(map[*ir.Func]int, len(m.Funcs))}
	next := nObjects
	for _, f := range m.Funcs {
		oi.base[f] = next
		next += f.NOps
	}
	oi.nTotal = next
	return oi
}

func (oi *opIndexer) of(f *ir.Func, opID int) int { return oi.base[f] + opID }

// MergeObjects runs access-pattern merging alone and returns the object
// groups (used by the Profile Max baseline, which groups objects the same
// way but assigns them greedily).
func MergeObjects(m *ir.Module) [][]int {
	uf, _ := buildMerge(m, Options{})
	return objectGroups(m, uf)
}

// buildMerge creates the union-find over objects+ops and applies the
// access-pattern merges (unless disabled).
func buildMerge(m *ir.Module, opts Options) (*unionFind, *opIndexer) {
	oi := indexOps(m, len(m.Objects))
	uf := newUnionFind(oi.nTotal)
	if opts.NoMerge {
		return uf, oi
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if !op.Opcode.IsMem() || len(op.MayAccess) == 0 {
					continue
				}
				node := oi.of(f, op.ID)
				for _, objID := range op.MayAccess {
					uf.union(node, objID)
				}
			}
		}
	}
	return uf, oi
}

func objectGroups(m *ir.Module, uf *unionFind) [][]int {
	byRoot := map[int][]int{}
	for _, o := range m.Objects {
		r := uf.find(o.ID)
		byRoot[r] = append(byRoot[r], o.ID)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	groups := make([][]int, 0, len(roots))
	for _, r := range roots {
		g := byRoot[r]
		sort.Ints(g)
		groups = append(groups, g)
	}
	return groups
}

// PartitionData performs the first pass of Global Data Partitioning:
// assign every data object a home cluster on a k-cluster machine.
func PartitionData(m *ir.Module, prof *profile.Profile, k int, opts Options) (*Result, error) {
	return partitionData(m, prof, k, opts, nil, nil)
}

// PartitionDataOn is PartitionData for a concrete machine: the cluster
// count, the per-cluster memory-share targets (when opts.MemFractions is
// nil), and — on machines with non-uniform intercluster latencies — a
// topology-aware mapping of partition parts onto physical clusters come
// from mcfg. The graph partitioner minimizes cut data-flow weight treating
// every cluster pair as equidistant; on a mesh or NUMA machine, *which*
// cluster each part lands on then decides how many cycles every cut edge
// costs, so the label assignment is optimized here as a second step.
//
// dp is the data-partition memo to use: one that earlier calls on the
// same module and profile filled, or nil to partition afresh.
func PartitionDataOn(m *ir.Module, prof *profile.Profile, mcfg *machine.Config, opts Options, dp *DataPartitions) (*Result, error) {
	if opts.MemFractions == nil {
		opts.MemFractions = mcfg.MemFractions()
	}
	return partitionData(m, prof, mcfg.NumClusters(), opts, mcfg, dp)
}

// DataPartitions is one program's data-partition memo: the machine-
// independent outcome of partitioning its program-level graph, keyed by
// the cluster count, the memory-share targets and the partitioning knobs
// (dataKey). The graph is a function of the module, the profile and those
// knobs alone — move latency and topology reach only the relabelling that
// follows, which every call reruns from the entry's part-pair cut weights
// — so a hit returns exactly the Result a fresh call would. The memo must
// only ever see one module and profile. The zero value is an empty memo;
// it is safe for concurrent use.
type DataPartitions struct {
	entries memo.Table[*DataEntry]
	mu      sync.Mutex
	tier    DataTier
}

// DataEntry is one partitioning outcome before relabelling. Entries are
// shared by every Result a DataPartitions serves, so nobody may modify
// them.
type DataEntry struct {
	Part       []int // object ID -> part
	Groups     [][]int
	GroupBytes []int64
	Cut        int64
	PairW      []int64 // k×k cut data-flow weight between part pairs
}

// DataTier is a second level under a DataPartitions — in practice the
// persistent artifact store — consulted inside the single-flight of a key
// the memo misses, and filled after a computation. key is the memo key;
// Get must return only an entry shaped for k clusters and the memo's
// module. Both methods must be safe for concurrent use and must never fail
// the caller: a broken tier behaves as one that never hits.
type DataTier interface {
	Get(key []byte, k int) (*DataEntry, bool)
	Put(key []byte, e *DataEntry)
}

// SetTier attaches (or, with nil, detaches) d's second level; later
// misses consult it.
func (d *DataPartitions) SetTier(t DataTier) {
	d.mu.Lock()
	d.tier = t
	d.mu.Unlock()
}

// Clear empties the memo; later calls recompute (or reload from the tier).
func (d *DataPartitions) Clear() { d.entries.Clear() }

// dataKey encodes every input of the graph partitioning besides the module
// and profile: k, the exact bits of the memory fractions and tolerance,
// and the graph-shaping flags. Obs is left out because it only counts and
// never changes the result.
func dataKey(k int, opts Options) []byte {
	buf := make([]byte, 0, 8*(len(opts.MemFractions)+3)+1)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(opts.MemFractions)))
	for _, f := range opts.MemFractions {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(opts.memTol()))
	var flags byte
	for i, on := range []bool{opts.BalanceOps, opts.NoMerge, opts.NoSinkWeighting, opts.SlackMerge} {
		if on {
			flags |= 1 << i
		}
	}
	return append(buf, flags)
}

func partitionData(m *ir.Module, prof *profile.Profile, k int, opts Options, mcfg *machine.Config, dp *DataPartitions) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("gdp: need at least 1 cluster, got %d", k)
	}
	if opts.MemFractions != nil && len(opts.MemFractions) != k {
		return nil, fmt.Errorf("gdp: %d memory fractions for %d clusters", len(opts.MemFractions), k)
	}
	var dt *memo.Table[*DataEntry] // nil: partition afresh
	var key []byte
	var tier DataTier
	if dp != nil {
		dt, key = &dp.entries, dataKey(k, opts)
		dp.mu.Lock()
		tier = dp.tier
		dp.mu.Unlock()
	}
	loaded := false
	e, hit, err := dt.Do(key, func() (*DataEntry, error) {
		if tier != nil {
			if e, ok := tier.Get(key, k); ok {
				loaded = true
				return e, nil
			}
		}
		e, err := partitionGraph(m, prof, k, opts)
		if err == nil && tier != nil {
			tier.Put(key, e)
		}
		return e, err
	})
	if err != nil {
		return nil, err
	}
	if (hit || loaded) && opts.Obs != nil {
		opts.Obs.Counter("gdp_data_hits").Add(1)
	}

	res := &Result{
		DataMap:    make(DataMap, len(e.Part)),
		Groups:     e.Groups,
		GroupBytes: e.GroupBytes,
		CutWeight:  e.Cut,
	}
	copy(res.DataMap, e.Part)
	if mcfg != nil {
		if perm := topologyPerm(e.PairW, mcfg, opts.MemFractions); perm != nil {
			for id, p := range res.DataMap {
				res.DataMap[id] = perm[p]
			}
		}
	}
	if opts.Obs != nil {
		opts.Obs.Counter("gdp_partitions").Add(1)
		opts.Obs.Counter("gdp_groups").Add(int64(len(res.Groups)))
		opts.Obs.Counter("gdp_cut_weight").Add(res.CutWeight)
	}
	return res, nil
}

// partitionGraph builds the program-level graph, partitions it k ways and
// returns the outcome before any topology relabelling.
func partitionGraph(m *ir.Module, prof *profile.Profile, k int, opts Options) (*DataEntry, error) {
	uf, oi := buildMerge(m, opts)

	if opts.SlackMerge {
		mergeDependenceChains(m, uf, oi)
	}

	// Map union-find roots to dense graph nodes.
	nodeOf := map[int]int{}
	nodeID := func(entity int) int {
		r := uf.find(entity)
		if n, ok := nodeOf[r]; ok {
			return n
		}
		n := len(nodeOf)
		nodeOf[r] = n
		return n
	}
	// Touch all entities in deterministic order so node numbering is
	// stable: objects first, then ops function by function.
	for _, o := range m.Objects {
		nodeID(o.ID)
	}
	for _, f := range m.Funcs {
		for id := 0; id < f.NOps; id++ {
			nodeID(oi.of(f, id))
		}
	}

	dims := 1
	if opts.BalanceOps {
		dims = 2
	}
	g := partition.NewGraph(len(nodeOf), dims)
	// Weights: dim 0 = data bytes; dim 1 (ablation only) = computation.
	for _, o := range m.Objects {
		n := nodeID(o.ID)
		g.W[n][0] += objBytes(o, prof)
	}
	if opts.BalanceOps {
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				freq := blockFreq(prof, b)
				for _, op := range b.Ops {
					g.W[nodeID(oi.of(f, op.ID))][1] += scaleFreq(freq)
				}
			}
		}
	}
	// Edges: data-flow def-use within functions, plus call linkage.
	for _, f := range m.Funcs {
		du := cfg.ComputeDefUse(f)
		ops := f.OpsByID()
		for _, op := range ops {
			u := nodeID(oi.of(f, op.ID))
			w := scaleFreq(blockFreq(prof, op.Block))
			if op.Opcode == ir.OpStore && !opts.NoSinkWeighting {
				// Store operands are latency-tolerant sinks.
				w = (w + 3) / 4
			}
			for argI := range op.Args {
				for _, defID := range du.DefsOf[op.ID][argI] {
					we := w
					if ops[defID].Opcode == ir.OpLoad && !opts.NoSinkWeighting {
						// A cut here makes a remote load feed this op:
						// the full move latency lands on a value path.
						we *= 2
					}
					g.Connect(nodeID(oi.of(f, defID)), u, we)
				}
			}
			if op.Opcode == ir.OpCall {
				callee := m.Func(op.Callee)
				linkCall(g, nodeID, oi, op, f, callee, w)
			}
		}
	}

	tols := []float64{opts.memTol()}
	if opts.BalanceOps {
		tols = append(tols, opTol)
	}
	part, err := partition.KWay(g, k, partition.Options{
		Tol:       tols,
		Fractions: opts.MemFractions,
		Obs:       opts.Obs,
	})
	if err != nil {
		return nil, err
	}

	e := &DataEntry{
		Part:   make([]int, len(m.Objects)),
		PairW:  make([]int64, k*k),
		Groups: objectGroups(m, uf),
	}
	for _, o := range m.Objects {
		e.Part[o.ID] = part[nodeID(o.ID)]
	}
	for u := range g.Adj {
		for _, ed := range g.Adj[u] {
			if p, q := part[u], part[ed.To]; u < ed.To && p != q {
				e.Cut += ed.W
				e.PairW[p*k+q] += ed.W
				e.PairW[q*k+p] += ed.W
			}
		}
	}
	e.GroupBytes = make([]int64, len(e.Groups))
	for gi, grp := range e.Groups {
		for _, objID := range grp {
			e.GroupBytes[gi] += objBytes(m.Objects[objID], prof)
		}
	}
	return e, nil
}

// topologyPerm relabels the k parts of a finished partition onto the
// machine's k clusters to minimize the latency-weighted cut cost
// Σ_{p<q} W[p][q] · MoveLat(π(p), π(q)), where W (pairW, k×k row-major) is
// the cut data-flow weight between parts. It returns π (part -> cluster),
// or nil to keep the identity labelling. Only memory-share-preserving
// permutations are considered (part p was balanced to cluster p's byte
// target, so it may only move to a cluster with the same target). The
// permutations are enumerated in lexicographic order with strict
// improvement, so on uniform-latency machines (every pair equidistant —
// bus, or any machine expressed as a uniform matrix) the identity labeling
// always wins and the result is bit-identical to the plain PartitionData
// path.
func topologyPerm(pairW []int64, mcfg *machine.Config, fractions []float64) []int {
	k := mcfg.NumClusters()
	if k < 2 || k > 8 { // k! search; no preset exceeds 8 clusters
		return nil
	}
	lat := mcfg.LatencyTable()
	uniform := true
	for a := 0; a < k && uniform; a++ {
		for b := a + 1; b < k; b++ {
			if lat[a][b] != lat[0][1] {
				uniform = false
				break
			}
		}
	}
	if uniform {
		return nil
	}
	perm := make([]int, k) // part -> cluster
	best := make([]int, k)
	used := make([]bool, k)
	var bestCost int64 = -1
	var dfs func(p int, cost int64)
	dfs = func(p int, cost int64) {
		if bestCost >= 0 && cost >= bestCost {
			return // partial cost only grows; prune
		}
		if p == k {
			bestCost = cost
			copy(best, perm)
			return
		}
		for c := 0; c < k; c++ {
			if used[c] {
				continue
			}
			if fractions != nil && fractions[p] != fractions[c] {
				continue
			}
			add := int64(0)
			for q := 0; q < p; q++ {
				add += pairW[p*k+q] * int64(lat[c][perm[q]])
			}
			used[c] = true
			perm[p] = c
			dfs(p+1, cost+add)
			used[c] = false
		}
	}
	dfs(0, 0)
	if bestCost < 0 {
		return nil // no fraction-preserving permutation: keep identity
	}
	return best
}

// linkCall adds affinity edges between a call op and the callee's
// parameter-consuming and returning ops, so cross-function value flow is
// visible in the program-level graph.
func linkCall(g *partition.Graph, nodeID func(int) int, oi *opIndexer,
	call *ir.Op, caller, callee *ir.Func, w int64) {

	u := nodeID(oi.of(caller, call.ID))
	for _, b := range callee.Blocks {
		for _, op := range b.Ops {
			touches := false
			for _, a := range op.Args {
				if a.IsReg() && int(a.Reg) < callee.NParams {
					touches = true
				}
			}
			if op.Opcode == ir.OpRet && len(op.Args) == 1 {
				touches = true
			}
			if touches {
				g.Connect(u, nodeID(oi.of(callee, op.ID)), w)
			}
		}
	}
}

// mergeDependenceChains unions each op with its consumer when it is the
// consumer's only in-block producer and has a single use — a cheap stand-in
// for the low-slack dependence merging the paper evaluated (§3.3.1).
func mergeDependenceChains(m *ir.Module, uf *unionFind, oi *opIndexer) {
	for _, f := range m.Funcs {
		du := cfg.ComputeDefUse(f)
		ops := f.OpsByID()
		for _, op := range ops {
			if op.Dst == ir.NoReg {
				continue
			}
			uses := du.UsesOf[op.ID]
			if len(uses) != 1 {
				continue
			}
			use := ops[uses[0]]
			if use.Block == op.Block {
				uf.union(oi.of(f, op.ID), oi.of(f, use.ID))
			}
		}
	}
}

func objBytes(o *ir.Object, prof *profile.Profile) int64 {
	if prof != nil {
		if b, ok := prof.ObjBytes[o.ID]; ok && b > 0 {
			return b
		}
	}
	return o.Size
}

func blockFreq(prof *profile.Profile, b *ir.Block) int64 {
	if prof == nil {
		return 1
	}
	if fq := prof.Freq(b); fq > 0 {
		return fq
	}
	return 1
}

func scaleFreq(freq int64) int64 {
	// Linear in execution frequency (capped): the program-level graph's
	// edge cut should track real dynamic communication volume.
	if freq < 1 {
		return 1
	}
	if freq > 1<<20 {
		return 1 << 20
	}
	return freq
}

// ComputeLocksFunc derives f's second-pass memory-operation locks from a
// data map: every load/store/malloc is locked to the home cluster of the
// data it may access. When an operation can reach objects homed on
// different clusters (possible only when merging was disabled), the lock is
// the profile-weighted majority home. The locks depend only on dm's homes
// for the objects f's memory ops may access, so a mapping sweep can
// recompute exactly the functions a data-map change touches.
func ComputeLocksFunc(f *ir.Func, dm DataMap, prof *profile.Profile) rhop.Locks {
	locks := rhop.Locks{}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if !op.Opcode.IsMem() || len(op.MayAccess) == 0 {
				continue
			}
			locks[op.ID] = homeFor(op, dm, prof)
		}
	}
	return locks
}

func homeFor(op *ir.Op, dm DataMap, prof *profile.Profile) int {
	votes := map[int]int64{}
	for _, objID := range op.MayAccess {
		w := int64(1)
		if prof != nil {
			if counts, ok := prof.OpObj[op]; ok {
				if c := counts[objID]; c > 0 {
					w = c
				}
			}
		}
		votes[dm[objID]] += w
	}
	best, bestV := 0, int64(-1)
	clusters := make([]int, 0, len(votes))
	for c := range votes {
		clusters = append(clusters, c)
	}
	sort.Ints(clusters)
	for _, c := range clusters {
		if votes[c] > bestV {
			best, bestV = c, votes[c]
		}
	}
	return best
}

// Validate checks a data map covers every object with a cluster in [0,k).
func (dm DataMap) Validate(m *ir.Module, k int) error {
	if len(dm) != len(m.Objects) {
		return fmt.Errorf("gdp: data map covers %d objects, module has %d", len(dm), len(m.Objects))
	}
	for id, c := range dm {
		if c < 0 || c >= k {
			return fmt.Errorf("gdp: object %d mapped to cluster %d of %d", id, c, k)
		}
	}
	return nil
}
