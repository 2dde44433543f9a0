package eval

import (
	"context"
	"fmt"
	"sort"

	"mcpart/internal/defaults"
	"mcpart/internal/machine"
	"mcpart/internal/obs"
)

// This file implements the branch-and-bound best-mapping search behind
// BestMapping.
//
// The Gray-code sweep (sweep.go) makes enumerating all 2^n mappings cheap
// per point, but the point count itself is still exponential. When only the
// optimum is wanted, the same per-function cost tables support an exact
// search that never materializes the point set: program cycles are the sum
// of per-function table entries, so for any partial object assignment the
// sum of each function's minimum over its undecided table bits is an
// admissible lower bound — no completion of the prefix can cost less,
// because the functions' minima are taken independently. A depth-first
// search over object-assignment prefixes prunes every subtree whose bound
// already meets the best complete mapping found, which is what lifts the
// practical object cap from DefaultMaxObjects to DefaultBestMaxObjects.
//
// The bound is maintained incrementally, mirroring the sweep's delta
// discipline: assigning one object only re-indexes the tables of the
// functions touching it, so a DFS step costs O(touching functions), not
// O(functions). Each function's minima come from a ladder of min-tables
// built once after phase 1 — level j holds, for every value of the
// function's first j decided bits (in global search order), the minimum
// cost over the remaining bits:
//
//	lvl[t]   = the function's full cost table (repacked in search order)
//	lvl[j]   = min(lvl[j+1][v], lvl[j+1][v | 1<<j])
//
// On cluster-symmetric machines object 0 is pinned to cluster 0 and
// searched first, exactly matching the sweep's canonical-mask convention
// (phase 1 leaves object-0=1 signatures unbuilt, and pinning guarantees
// the ladder never takes minima across that hole).

// BestResult is the outcome of a branch-and-bound best-mapping search.
type BestResult struct {
	// Mask is an optimal data-object mapping, encoded positionally in
	// base k (digit i = cluster of object i; a bitmask at k=2); ties
	// resolve to the first optimum the search reaches, which is
	// deterministic for a given program and machine.
	Mask uint64
	// Cycles is the dynamic cycle count under Mask — equal to
	// ExhaustiveResult.Best whenever the full sweep is feasible.
	Cycles int64
	// Moves is the intercluster move count under Mask.
	Moves int64
	// NodesVisited and NodesPruned count DFS nodes expanded and subtrees
	// cut by the lower bound (also published as bb_nodes_visited /
	// bb_nodes_pruned counters).
	NodesVisited int64
	NodesPruned  int64
}

// bbTableBudget caps the total min-table ladder size (entries across all
// functions and levels). The ladder for a function touching t objects has
// about k^(t+1)/(k-1) entries, so the cap really bounds per-function
// touched-object counts; programs under DefaultBestMaxObjects objects only
// approach it when single functions touch most of the objects — exactly
// the case where phase 1 (k^t pipeline runs for that function) is
// infeasible anyway.
const bbTableBudget = 1 << 25

// BestMapping finds a cycle-optimal data-object mapping for the machine's
// k clusters without enumerating the k^n mapping space. maxObjects guards
// the search like Exhaustive's cap (non-positive selects
// defaults.DefaultBestMaxObjects); the result's Cycles always equals the
// minimum the exhaustive sweep would report. Validation and fault
// injection follow Exhaustive: under opts.Validate every cost-table entry
// is validated once, and the optimum gets the sweep's per-point check.
func BestMapping(c *Compiled, cfg *machine.Config, opts Options, maxObjects int) (*BestResult, error) {
	return BestMappingCtx(context.Background(), c, cfg, opts, maxObjects)
}

// BestMappingCtx is BestMapping under a context: cancellation stops phase 1
// between signatures and the DFS between nodes.
func BestMappingCtx(ctx context.Context, c *Compiled, cfg *machine.Config, opts Options, maxObjects int) (*BestResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = obs.With(ctx, opts.Observer)
	opts.ctx = ctx
	opts.Observer = opts.Observer.Named("best").Named(c.Name)
	k := cfg.NumClusters()
	registerSweepCounters(opts.Observer)
	n := len(c.Mod.Objects)
	if maxObjects <= 0 {
		maxObjects = defaults.DefaultBestMaxObjects
	}
	if n > maxObjects {
		return nil, fmt.Errorf("eval: %s has %d objects; best-mapping search capped at %d", c.Name, n, maxObjects)
	}
	rad, err := newRadix(k, n)
	if err != nil {
		return nil, err
	}
	// A single function can touch every object, so the k^n full-table size
	// must itself fit the ladder budget before phase 1 builds anything.
	// At k=2 the n <= maxObjects cap is strictly tighter, so this check
	// only bites on k>2 machines.
	if rad.pow[n] > bbTableBudget {
		return nil, fmt.Errorf("eval: %s has %d mapping points on %d clusters; best-mapping search capped at %d", c.Name, rad.pow[n], k, int64(bbTableBudget))
	}
	canon := k == 2 && cfg.SymmetricClusters()

	// Phase 1: the same per-function cost tables the sweep builds, through
	// the same memo keys.
	opts2, done := beginRun(c, SchemeFixed, opts)
	res := &Result{Scheme: SchemeFixed}
	tables, err := buildCostTables(ctx, c, cfg, opts2, rad, canon, n, res)
	if err != nil {
		err = sweepErr(c, err)
		done(nil, err)
		return nil, err
	}
	done(res, nil)

	var budget int64
	for ti := range tables {
		for j := 0; j <= len(tables[ti].objs); j++ {
			budget += int64(rad.count(j))
		}
	}
	if budget > bbTableBudget {
		return nil, fmt.Errorf("eval: %s min-table ladder needs %d entries (budget %d); reduce touched-object fan-in or use the exhaustive sweep", c.Name, budget, bbTableBudget)
	}

	// Global search order: object 0 first when canonical (it is pinned to
	// cluster 0), then descending impact — the summed cost spread of the
	// tables touching the object — so high-leverage decisions happen high
	// in the tree and the bound tightens early.
	impact := make([]int64, n)
	for ti := range tables {
		t := &tables[ti]
		if len(t.objs) == 0 {
			continue
		}
		lo, hi := t.minMax(canon)
		for _, o := range t.objs {
			impact[o] += hi - lo
		}
	}
	order := make([]int, 0, n)
	for o := 0; o < n; o++ {
		if !canon || o != 0 {
			order = append(order, o)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return impact[order[i]] > impact[order[j]] })
	if canon && n > 0 {
		order = append([]int{0}, order...)
	}
	depthOf := make([]int, n)
	for d, o := range order {
		depthOf[o] = d
	}

	// Build each function's min-table ladder in search order.
	ladders := make([]*bbLadder, len(tables))
	for ti := range tables {
		ladders[ti] = newBBLadder(&tables[ti], depthOf, canon, rad)
	}
	objRefs := make([][]int, n)
	for ti := range tables {
		for _, o := range tables[ti].objs {
			objRefs[o] = append(objRefs[o], ti)
		}
	}

	search := &bbSearch{
		order:   order,
		objRefs: objRefs,
		ladders: ladders,
		canon:   canon,
		rad:     rad,
		ctx:     ctx,
		best:    int64(1)<<62 - 1,
	}
	search.childAt = make([][]int, len(order))
	search.boundAt = make([][]int64, len(order))
	for d := range order {
		search.childAt[d] = make([]int, k)
		search.boundAt[d] = make([]int64, k)
	}
	// Root bound: every function's global minimum.
	for _, l := range ladders {
		search.bound += l.lvl[0][0]
	}
	if err := search.dfs(0); err != nil {
		return nil, err
	}

	out := &BestResult{
		Mask:         search.bestMask,
		Cycles:       search.best,
		NodesVisited: search.visited,
		NodesPruned:  search.pruned,
	}
	_, out.Moves = pointCost(tables, rad, out.Mask)
	if opts.Validate {
		if err := opts.checkPoint(c, tables, rad, n, out.Mask, out.Cycles, out.Moves); err != nil {
			return nil, err
		}
	}
	opts.Observer.Counter("bb_nodes_visited").Add(search.visited)
	opts.Observer.Counter("bb_nodes_pruned").Add(search.pruned)
	return out, nil
}

// minMax scans a table's reachable entries for its cost spread.
func (t *costTable) minMax(canon bool) (lo, hi int64) {
	fixed0 := canon && len(t.objs) > 0 && t.objs[0] == 0
	first := true
	for sig := range t.cost {
		if fixed0 && sig%t.k != 0 {
			continue
		}
		cyc := t.cost[sig].Cycles
		if first {
			lo, hi = cyc, cyc
			first = false
			continue
		}
		if cyc < lo {
			lo = cyc
		}
		if cyc > hi {
			hi = cyc
		}
	}
	return lo, hi
}

// bbLadder is one function's min-table ladder. Level j is indexed by the
// values (base k) of the function's first j decided digits (in global
// search order) and holds the minimum cycles over all completions of the
// rest.
type bbLadder struct {
	lvl [][]int64
	// depth and prefix are the DFS's cursor into the ladder: how many of
	// the function's digits the current partial assignment has decided,
	// and their packed values.
	depth  int
	prefix int
}

func newBBLadder(t *costTable, depthOf []int, canon bool, rad *radix) *bbLadder {
	tb := len(t.objs)
	// Local digit order: the function's objects sorted by global search
	// depth, so the DFS always extends the prefix at the current depth.
	perm := make([]int, tb)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return depthOf[t.objs[perm[a]]] < depthOf[t.objs[perm[b]]] })

	l := &bbLadder{lvl: make([][]int64, tb+1)}
	top := make([]int64, rad.count(tb))
	fixed0 := canon && tb > 0 && t.objs[0] == 0
	for v := range top {
		sig := 0
		for j, p := range perm {
			sig += rad.digit(uint64(v), j) * int(rad.pow[p])
		}
		if fixed0 && sig%rad.k != 0 {
			// Unreachable under canonical pinning (phase 1 left it
			// unbuilt). Object 0 is searched first, so no minimum below
			// ever spans this entry; poison it defensively.
			top[v] = int64(1)<<62 - 1
			continue
		}
		top[v] = t.cost[sig].Cycles
	}
	l.lvl[tb] = top
	for j := tb - 1; j >= 0; j-- {
		cur := make([]int64, rad.count(j))
		next := l.lvl[j+1]
		for v := range cur {
			best := next[v]
			for c := 1; c < rad.k; c++ {
				if x := next[v+c*int(rad.pow[j])]; x < best {
					best = x
				}
			}
			cur[v] = best
		}
		l.lvl[j] = cur
	}
	return l
}

// bbSearch is the DFS state: the incremental bound, the incumbent, and the
// per-ladder cursors.
type bbSearch struct {
	order   []int
	objRefs [][]int
	ladders []*bbLadder
	canon   bool
	rad     *radix
	ctx     context.Context

	bound    int64 // admissible lower bound for the current prefix
	mask     uint64
	best     int64
	bestMask uint64
	visited  int64
	pruned   int64

	// childAt/boundAt are per-depth scratch rows for child probing (k
	// entries each), allocated once so the DFS itself never allocates.
	childAt [][]int
	boundAt [][]int64
}

// assign extends the prefix with object obj = v and returns the bound
// delta (always >= 0: deciding a digit can only raise each function's
// minimum).
func (s *bbSearch) assign(obj, v int) int64 {
	var delta int64
	for _, ti := range s.objRefs[obj] {
		l := s.ladders[ti]
		old := l.lvl[l.depth][l.prefix]
		l.prefix += v * int(s.rad.pow[l.depth])
		l.depth++
		delta += l.lvl[l.depth][l.prefix] - old
	}
	s.bound += delta
	s.mask += uint64(v) * s.rad.pow[obj]
	return delta
}

// unassign reverts the matching assign.
func (s *bbSearch) unassign(obj, v int, delta int64) {
	for _, ti := range s.objRefs[obj] {
		l := s.ladders[ti]
		l.depth--
		l.prefix -= v * int(s.rad.pow[l.depth])
	}
	s.bound -= delta
	s.mask -= uint64(v) * s.rad.pow[obj]
}

func (s *bbSearch) dfs(depth int) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	s.visited++
	if depth == len(s.order) {
		// Complete assignment: the bound is the exact total.
		if s.bound < s.best {
			s.best = s.bound
			s.bestMask = s.mask
		}
		return nil
	}
	obj := s.order[depth]
	// Object 0 is pinned on symmetric 2-cluster machines (canonical masks).
	if s.canon && obj == 0 {
		delta := s.assign(obj, 0)
		err := s.dfs(depth + 1)
		s.unassign(obj, 0, delta)
		return err
	}
	// Probe every child and descend best-first (ties to the lower
	// cluster, keeping the search deterministic): a near-optimal incumbent
	// early makes the bound bite everywhere else.
	k := s.rad.k
	children := s.childAt[depth]
	bounds := s.boundAt[depth]
	for v := 0; v < k; v++ {
		d := s.assign(obj, v)
		children[v] = v
		bounds[v] = s.bound
		s.unassign(obj, v, d)
	}
	// Stable insertion sort by bound: ties keep the lower cluster first,
	// which at k=2 reproduces the historical {0,1}-unless-strictly-better
	// probe order exactly.
	for a := 1; a < k; a++ {
		for b := a; b > 0 && bounds[children[b]] < bounds[children[b-1]]; b-- {
			children[b], children[b-1] = children[b-1], children[b]
		}
	}
	for _, v := range children {
		delta := s.assign(obj, v)
		if s.bound >= s.best {
			s.pruned++
			s.unassign(obj, v, delta)
			continue
		}
		err := s.dfs(depth + 1)
		s.unassign(obj, v, delta)
		if err != nil {
			return err
		}
	}
	return nil
}
