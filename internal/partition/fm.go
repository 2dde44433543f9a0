package partition

import (
	"math/bits"
	"slices"
	"sync"

	"mcpart/internal/obs"
)

// The partitioner: a METIS-style multilevel engine (heavy-edge-matching
// coarsening, multi-start greedy growing, move-based refinement at every
// level), built around three mechanisms:
//
//   - a CSR graph per level (csr.go) so every phase iterates flat arrays;
//   - Fiduccia–Mattheyses refinement: per-node gains computed once per
//     level and maintained incrementally on each move, organized in gain
//     buckets (a lazy max-heap, or a live-node bitset scan on graphs of at
//     most scanSelectMax nodes) so selecting the best candidate and
//     re-ranking its neighbors never re-sorts the pass;
//   - heap-based region growing for the initial bisection, replacing the
//     O(V·E) frontier rescans, with the same deterministic seed-spread
//     scheme, plus multi-start at the coarsest level.
//
// Classical FM indexes buckets with a dense array because gains are small
// integers; here edge weights are profile-scaled 64-bit values, so the
// bucket structure is a lazy max-heap of (gain, node) entries over flat
// arrays: removal and relinking just flip a membership bit and push a
// fresh entry, and popMax discards entries whose recorded gain no longer
// matches the node's current bucket key. Ties between equal gains always
// resolve to the lowest node index, which keeps every pass deterministic.

// fmTries is the multi-start width at the coarsest level. The coarsest
// graph is small, so each try costs little next to the fine levels.
const fmTries = 16

// fmTrajectories is how many distinct coarsest-level candidates survive
// multi-start and are carried independently through the entire
// uncoarsening (projection + FM refinement per level). A single carried
// candidate can land in a locally-optimal basin a sibling escapes; the
// finest-level winner is chosen by (balance violation, cut, candidate
// index).
const fmTrajectories = 4

// trajectoryCap is the level size above which only the single best
// candidate keeps climbing. Multi-trajectory carrying pays off on the
// small and mid levels, where distinct coarse optima still lead to
// different basins; past a few thousand nodes the candidates have
// converged and refining all of them just multiplies the cost of the most
// expensive levels.
const trajectoryCap = 512

// boundaryMin is the level size above which FM passes seed the buckets
// with boundary nodes only (interior nodes join lazily when a neighbor
// moves). Below it every free node is bucketed — exhaustive FM on the
// small, quality-critical levels costs nothing.
const boundaryMin = 32

// maxRequeue bounds how many times a balance-deferred node re-enters the
// buckets within one FM pass. Every applied move re-buckets the nodes
// parked on its destination part, and without a cap a near-balanced big
// graph turns that into a quadratic churn (half the nodes deferred, each
// apply re-queueing all of them). A node that has been re-bucketed this
// many times sits out the rest of the pass.
const maxRequeue = 4

// scratchPool recycles fmScratch working sets across Bisect/KWay calls.
// The evaluation pipeline partitions thousands of small region graphs per
// run, and reusing the grown arrays keeps those calls allocation-free.
// Every table is (re)initialized by its user, so a pooled scratch carries
// capacity, never state.
var scratchPool = sync.Pool{New: func() any { return new(fmScratch) }}

// growTo returns s resized to n, preserving nothing: callers initialize.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fmScratch is the fast path's reusable working memory: one per
// bisection, never shared across goroutines.
type fmScratch struct {
	// coarsening tables
	match    []int32
	order    []int32
	incident []int64
	mark     []int32
	pos      []int32
	sortKeys []uint64
	maxW     []int64
	// refinement tables
	gain     []int64
	pw       []int64
	limit    []int64
	bk       buckets
	moves    []int32    // this pass's tentative move sequence, for rollback
	deferred [2][]int32 // balance-blocked nodes parked per part
	requeue  []uint8    // per-pass deferred re-bucket counts
	locked   []bool     // popped this pass; ineligible for lazy re-entry
	ext      []int32    // per-node count of neighbors in the opposite part
	// initial-growth tables
	inOne []bool
	conn  []int64
	grow  []heapEnt
	tries []int32 // bestInitialFM: every try's grown bisection, back to back
	// recycled multilevel buffers: coarse CSRs and fine-to-coarse maps
	// built during a bisectFast call. Nothing built from these escapes the
	// call (the winning partition is copied out), so the next call resets
	// the cursors and overwrites in place.
	csrs     []*CSR
	csrUsed  int
	cmaps    [][]int32
	cmapUsed int
	// observability tallies: accepted FM moves (kept prefix + rebalance
	// applies) and rolled-back tentative moves, accumulated by
	// refineFMPasses and flushed once per bisection when Options.Obs is
	// set. Plain ints on the scratch keep the nil-observer hot path free
	// of any observability cost.
	tMoves, tRollbacks int64
}

// flushTally publishes fs's accumulated tallies and the coarsening depth
// to o. No-op when o is nil.
func flushTally(o *obs.Observer, fs *fmScratch, coarsenLevels int) {
	if o == nil {
		return
	}
	o.Counter("fm_moves").Add(fs.tMoves)
	o.Counter("fm_rollbacks").Add(fs.tRollbacks)
	o.Counter("fm_bisections").Add(1)
	o.Histogram("fm_coarsen_levels").Observe(int64(coarsenLevels))
}

// getCSR hands out a recycled coarse-graph shell (arrays keep capacity).
func (fs *fmScratch) getCSR() *CSR {
	if fs.csrUsed < len(fs.csrs) {
		c := fs.csrs[fs.csrUsed]
		fs.csrUsed++
		return c
	}
	c := new(CSR)
	fs.csrs = append(fs.csrs, c)
	fs.csrUsed++
	return c
}

// getCmap hands out a recycled fine-to-coarse map of length n.
func (fs *fmScratch) getCmap(n int) []int32 {
	if fs.cmapUsed < len(fs.cmaps) {
		m := growTo(fs.cmaps[fs.cmapUsed], n)
		fs.cmaps[fs.cmapUsed] = m
		fs.cmapUsed++
		return m
	}
	m := make([]int32, n)
	fs.cmaps = append(fs.cmaps, m)
	fs.cmapUsed++
	return m
}

// heapEnt is one lazy max-heap entry: node u was keyed by value c when
// pushed. Entries whose key is out of date are skipped on pop.
type heapEnt struct {
	c int64
	u int32
}

func entLess(a, b heapEnt) bool {
	if a.c != b.c {
		return a.c > b.c
	}
	return a.u < b.u
}

// pushEnt appends e and sifts it up; popEnt removes the root. The heap is
// 4-ary: pops dominate (every stale lazy entry costs one), and halving the
// sift depth beats the extra per-level comparisons on these sizes.
func pushEnt(h []heapEnt, e heapEnt) []heapEnt {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entLess(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popEnt(h []heapEnt) []heapEnt {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftDown(h, 0)
	return h
}

func siftDown(h []heapEnt, i int) {
	n := len(h)
	for {
		m := i
		c := 4*i + 1
		last := c + 4
		if last > n {
			last = n
		}
		for ; c < last; c++ {
			if entLess(h[c], h[m]) {
				m = c
			}
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// scanSelectMax is the graph size at or below which the gain buckets use
// a linear-scan backend instead of the lazy heap. Selecting the best live
// node by walking a live-node bitset over a flat int64 gain array beats
// heap maintenance up to a few hundred nodes, and the paper's region
// graphs — the fast path's hottest callers — live entirely in that range.
// Both backends select the identical node (max gain, lowest index), so
// results are bit-identical.
const scanSelectMax = 128

// buckets is the FM gain-bucket structure, organized as a lazy max-heap
// of (gain, node) entries over flat arrays. insert records the node's
// current bucket key and pushes an entry; remove just clears the
// membership bit; relinking is a remove plus an insert. popMax peeks at
// the best live entry, discarding entries whose node left its bucket or
// changed key since the push. Equal gains resolve to the lowest node
// index, so selection order is deterministic.
//
// At or below scanSelectMax nodes the heap is bypassed entirely: insert
// and remove only toggle the membership bit and its twin in a live-node
// bitset, and popMax walks the set bits in ascending order, reading the
// gain array (wired in reset) for the best live node. The selection rule
// is the same, only the mechanism changes.
type buckets struct {
	h    []heapEnt
	key  []int64  // node's bucket key as of its latest insert
	in   []bool   // node currently belongs to a bucket
	scan bool     // linear-scan backend (tiny graphs)
	live []uint64 // scan backend: bit u set iff in[u]
	gain []int64  // current gains, read directly by the scan backend
}

func (b *buckets) reset(n int, gain []int64) {
	b.key = growTo(b.key, n)
	b.in = growTo(b.in, n)
	clear(b.in)
	b.h = b.h[:0]
	b.scan = n <= scanSelectMax
	if b.scan {
		b.live = growTo(b.live, (n+63)/64)
		clear(b.live)
	}
	b.gain = gain
}

// insert places u in gain bucket g. Callers keep the invariant that a
// node's bucket key equals its current gain.
func (b *buckets) insert(u int, g int64) {
	b.in[u] = true
	if b.scan {
		b.live[u>>6] |= 1 << (u & 63)
		return
	}
	b.key[u] = g
	b.h = pushEnt(b.h, heapEnt{g, int32(u)})
}

// append places u in gain bucket g without restoring heap order; callers
// must heapify() before the next popMax. Used for the O(n) initial fill.
func (b *buckets) append(u int, g int64) {
	b.in[u] = true
	if b.scan {
		b.live[u>>6] |= 1 << (u & 63)
		return
	}
	b.key[u] = g
	b.h = append(b.h, heapEnt{g, int32(u)})
}

func (b *buckets) heapify() {
	for i := (len(b.h) - 2) / 4; i >= 0; i-- {
		siftDown(b.h, i)
	}
}

// remove takes u out of its gain bucket. No-op when u is not in a bucket;
// its stale heap entries are discarded by later popMax calls.
func (b *buckets) remove(u int) {
	b.in[u] = false
	if b.scan {
		b.live[u>>6] &^= 1 << (u & 63)
	}
}

// popMax returns the node of the highest live bucket entry (without
// removing it), or -1 when every bucket is empty.
func (b *buckets) popMax() int {
	if b.scan {
		best, bestG := -1, int64(0)
		for w, word := range b.live {
			for word != 0 {
				u := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if best == -1 || b.gain[u] > bestG {
					best, bestG = u, b.gain[u]
				}
			}
		}
		return best
	}
	for len(b.h) > 0 {
		e := b.h[0]
		if b.in[e.u] && b.key[e.u] == e.c {
			return int(e.u)
		}
		b.h = popEnt(b.h)
	}
	return -1
}

// lvl is one step of the fast path's multilevel hierarchy.
type lvl struct {
	c    *CSR
	cmap []int32 // this level's node -> next (coarser) level's node
}

// exhaustiveMax is the node count at or below which the fast path scores
// every assignment instead of running the multilevel engine. The region
// graphs the evaluation pipeline partitions are mostly this small, and at
// these sizes 2^n scored masks cost less than a single multi-start — and
// return the true optimum, so the result can never be worse than any
// heuristic's.
const exhaustiveMax = 10

// bisectTiny enumerates all 2^n bisections of g (bit u of the mask is node
// u's part), skips masks that contradict fixed assignments, and returns
// the best by (balance violation, cut weight, mask). Ascending mask order
// makes the tiebreak — and the whole function — deterministic.
func bisectTiny(g *Graph, opts Options) []int {
	n := g.Len()
	total := g.TotalW()
	dims := g.NumW
	var limit [2][]int64
	for p := 0; p < 2; p++ {
		limit[p] = make([]int64, dims)
		for d, t := range total {
			limit[p][d] = int64(float64(t) * opts.frac(p) * (1 + opts.tol(d)))
		}
	}
	var care, want uint32 // fixed-node bits: mask&care must equal want
	for u, f := range g.Fixed {
		if f != -1 {
			care |= 1 << u
			if f == 1 {
				want |= 1 << u
			}
		}
	}
	pw := make([]int64, dims)
	bestMask := uint32(0)
	bestViol, bestCut := int64(-1), int64(-1)
	for mask := uint32(0); mask < 1<<n; mask++ {
		if mask&care != want {
			continue
		}
		// Balance violation: overflow of part 1's weight past its limits
		// plus the complement's past part 0's.
		clear(pw)
		for u := 0; u < n; u++ {
			if mask>>u&1 == 1 {
				for d := 0; d < dims; d++ {
					pw[d] += g.W[u][d]
				}
			}
		}
		var viol int64
		for d := 0; d < dims; d++ {
			if over := pw[d] - limit[1][d]; over > 0 {
				viol += over
			}
			if over := total[d] - pw[d] - limit[0][d]; over > 0 {
				viol += over
			}
		}
		if bestViol >= 0 && viol > bestViol {
			continue
		}
		var cut int64
		for u := 0; u < n; u++ {
			for _, e := range g.Adj[u] {
				if e.To > u && mask>>u&1 != mask>>e.To&1 {
					cut += e.W
				}
			}
		}
		if bestViol < 0 || viol < bestViol || (viol == bestViol && cut < bestCut) {
			bestMask, bestViol, bestCut = mask, viol, cut
		}
	}
	part := make([]int, n)
	for u := 0; u < n; u++ {
		part[u] = int(bestMask >> u & 1)
	}
	return part
}

// bisectFast is the multilevel bisection: build the CSR once, coarsen
// over flat arrays, then seed candidates from two depths of the hierarchy
// — a deep multi-start at the coarseFloor and a shallow one at the
// fastCoarseFloor, where the larger graph yields genuinely distinct
// starts. The merged top fmTrajectories candidates are carried
// independently back up the fine levels — each projected and FM-refined —
// and the finest-level winner is chosen by (balance violation, cut,
// candidate index). The deep extension only ever touches graphs below the
// fast floor, so its cost is negligible next to the fine levels. Node
// weights are conserved by coarsening, so one totals vector serves every
// level.
func bisectFast(g *Graph, opts Options) []int {
	if g.Len() <= exhaustiveMax {
		if opts.Obs != nil {
			opts.Obs.Counter("fm_tiny_bisections").Add(1)
		}
		return bisectTiny(g, opts)
	}
	fs := scratchPool.Get().(*fmScratch)
	defer scratchPool.Put(fs)
	fs.csrUsed, fs.cmapUsed = 0, 0
	fs.tMoves, fs.tRollbacks = 0, 0 // pooled tallies never leak across calls
	c := buildCSRInto(fs.getCSR(), g)
	total := c.TotalW()
	levels := []lvl{{c: c}}
	coarsenTo := func(target int) bool {
		shrunk := false
		for levels[len(levels)-1].c.Len() > target && len(levels) < 64 {
			next, cmap, ok := coarsenCSR(fs, levels[len(levels)-1].c, total)
			if !ok {
				break
			}
			levels[len(levels)-1].cmap = cmap
			levels = append(levels, lvl{c: next})
			shrunk = true
		}
		return shrunk
	}
	coarsenTo(fastCoarseFloor)
	shallow := len(levels) - 1
	coarsenTo(coarseFloor)
	deepest := len(levels) - 1

	// project replaces part with its projection onto the next finer level.
	project := func(fine lvl, part []int32) []int32 {
		fpart := make([]int32, fine.c.Len())
		for u := range fpart {
			fpart[u] = part[fine.cmap[u]]
		}
		return fpart
	}
	// The fast path tracks parts as []int32 — half the cache traffic of
	// []int in the random-access hot loops — and widens on return.
	widen := func(part []int32) []int {
		out := make([]int, len(part))
		for u, p := range part {
			out[u] = int(p)
		}
		return out
	}
	// Deep candidates: multi-start at the deepest level, carried up to the
	// shallow floor (all graphs here are at most the fast floor's size).
	cands := bestInitialFM(fs, levels[deepest].c, total, opts)
	for li := deepest - 1; li >= shallow; li-- {
		for i := range cands {
			cands[i] = project(levels[li], cands[i])
			refineFM(fs, levels[li].c, total, cands[i], opts)
		}
	}
	if deepest > shallow {
		// Fresh multi-start at the shallow floor; merge with the
		// deep-carried candidates and keep the best distinct ones.
		cands = append(cands, bestInitialFM(fs, levels[shallow].c, total, opts)...)
		cands = rankCandidates(levels[shallow].c, total, cands, opts)
	}
	if shallow == 0 {
		flushTally(opts.Obs, fs, len(levels)-1)
		return widen(cands[0]) // finest level reached; cands[0] is the winner
	}
	// Uncoarsen level by level. Candidates refine independently at each
	// level, and once the next level exceeds trajectoryCap only the best
	// candidate keeps climbing.
	for li := shallow - 1; li >= 0; li-- {
		fine := levels[li]
		if len(cands) > 1 && fine.c.Len() > trajectoryCap {
			cands = rankCandidates(levels[li+1].c, total, cands, opts)[:1]
		}
		for i := range cands {
			cands[i] = project(fine, cands[i])
			refineFM(fs, fine.c, total, cands[i], opts)
		}
	}
	out := widen(rankCandidates(c, total, cands, opts)[0])
	flushTally(opts.Obs, fs, len(levels)-1)
	return out
}

// rankCandidates orders parts best-first by (balance violation, cut,
// original index) on c, drops duplicates, and caps the list at
// fmTrajectories. The original index tiebreak keeps the ordering — and
// with it the whole fast path — deterministic.
func rankCandidates(c *CSR, total []int64, parts [][]int32, opts Options) [][]int32 {
	return rankCandidatesN(c, total, parts, opts, fmTrajectories)
}

// rankCandidatesN is rankCandidates with an explicit cap on how many
// distinct candidates survive.
func rankCandidatesN(c *CSR, total []int64, parts [][]int32, opts Options, keep int) [][]int32 {
	if len(parts) <= 1 {
		return parts // nothing to rank; skip the O(E) scoring pass
	}
	type scored struct {
		idx  int
		viol int64
		cut  int64
	}
	sc := make([]scored, len(parts))
	for i, p := range parts {
		sc[i] = scored{i, csrViolation(c, total, p, opts), csrCut(c, p)}
	}
	slices.SortFunc(sc, func(a, b scored) int {
		switch {
		case a.viol != b.viol:
			if a.viol < b.viol {
				return -1
			}
			return 1
		case a.cut != b.cut:
			if a.cut < b.cut {
				return -1
			}
			return 1
		default:
			return a.idx - b.idx
		}
	})
	out := make([][]int32, 0, keep)
	for _, s := range sc {
		if len(out) == keep {
			break
		}
		dup := false
		for _, prev := range out {
			if slices.Equal(prev, parts[s.idx]) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, parts[s.idx])
		}
	}
	return out
}

// bestInitialFM runs fmTries independent grow+refine starts at the
// coarsest level and returns up to fmTrajectories distinct candidates,
// best-first by (balance violation, cut weight, try index).
func bestInitialFM(fs *fmScratch, c *CSR, total []int64, opts Options) [][]int32 {
	// The refinement budget is spent in a funnel: all fmTries starts are
	// grown (cheap, one heap sweep each), the raw grows are ranked and
	// only the best triageKeep distinct ones get a short triage budget —
	// two FM passes separate good starts from dead ones — and only the
	// best fmTrajectories survivors get the full refinement budget.
	// Ranking raw grows first halves the triage work for the price of one
	// O(E) scoring pass.
	const (
		triagePasses = 2
		triageKeep   = fmTries - 2
	)
	n := c.Len()
	// Every try grows into its own n-slice of one scratch buffer; only the
	// surviving candidates are copied out.
	grown := growTo(fs.tries, fmTries*n)
	fs.tries = grown
	parts := make([][]int32, fmTries)
	for try := range parts {
		parts[try] = growInitial(fs, c, total, opts, try, fmTries, grown[try*n:(try+1)*n:(try+1)*n])
	}
	parts = rankCandidatesN(c, total, parts, opts, triageKeep)
	for _, p := range parts {
		refineFMPasses(fs, c, total, p, opts, triagePasses)
	}
	kept := rankCandidates(c, total, parts, opts)
	for _, p := range kept {
		refineFM(fs, c, total, p, opts)
	}
	kept = rankCandidates(c, total, kept, opts)
	out := make([]int32, len(kept)*n)
	for i, p := range kept {
		dst := out[i*n : (i+1)*n : (i+1)*n]
		copy(dst, p)
		kept[i] = dst
	}
	return kept
}

// growInitial grows one part greedily from a seed until it holds its
// target fraction of the combined normalized weight, honoring fixed nodes,
// writes the bisection into part (length c.Len()) and returns it. The
// frontier is a lazy max-heap keyed by (connection weight into the
// growing part, node index), so no placement rescans the graph. try selects among
// deterministic seed-spread choices; even tries grow part 1 and odd tries
// grow part 0, so the multi-start explores complementary regions even
// when the seed nodes coincide.
func growInitial(fs *fmScratch, c *CSR, total []int64, opts Options, try, tries int, part []int32) []int32 {
	n := c.Len()
	dims := c.Dims
	side := 1 - try%2 // the part being grown
	other := 1 - side
	sTry, sTries := try/2, (tries+1)/2 // seed index within this side's tries
	norm := func(u int) float64 {
		s := 0.0
		for d := 0; d < dims; d++ {
			if total[d] > 0 {
				s += float64(c.W[u*dims+d]) / float64(total[d])
			}
		}
		return s
	}
	target := 0.0
	for d := range total {
		if total[d] > 0 {
			target += opts.frac(side)
		}
	}
	inOne := growTo(fs.inOne, n)
	clear(inOne)
	fs.inOne = inOne
	conn := growTo(fs.conn, n)
	clear(conn)
	fs.conn = conn
	fs.grow = fs.grow[:0]
	grown := 0.0
	add := func(u int) {
		inOne[u] = true
		grown += norm(u)
		for i := c.XAdj[u]; i < c.XAdj[u+1]; i++ {
			v := c.Adj[i]
			if inOne[v] || int(c.Fixed[v]) == other {
				continue
			}
			conn[v] += c.AdjW[i]
			fs.grow = pushEnt(fs.grow, heapEnt{conn[v], v})
		}
	}
	for u := 0; u < n; u++ {
		if int(c.Fixed[u]) == side {
			add(u)
		}
	}
	// Seed choice by sTry: 0 = the heaviest free node (hardest to place
	// later); k > 0 = the first free node counting from n*k/sTries,
	// spreading starts across the graph deterministically.
	if grown < target {
		seed := -1
		if sTry == 0 {
			bestW := -1.0
			for u := 0; u < n; u++ {
				if c.Fixed[u] == -1 && !inOne[u] && norm(u) > bestW {
					seed, bestW = u, norm(u)
				}
			}
		} else {
			for off := 0; off < n; off++ {
				u := (n*sTry/sTries + off) % n
				if c.Fixed[u] == -1 && !inOne[u] {
					seed = u
					break
				}
			}
		}
		if seed >= 0 {
			add(seed)
		}
	}
	cursor := 0
	for grown < target {
		u := -1
		for len(fs.grow) > 0 {
			e := fs.grow[0]
			if inOne[e.u] || conn[e.u] != e.c {
				fs.grow = popEnt(fs.grow) // stale: absorbed, or superseded by a heavier entry
				continue
			}
			u = int(e.u)
			fs.grow = popEnt(fs.grow)
			break
		}
		if u < 0 {
			// Empty frontier (disconnected remainder): fall back to the
			// lowest-index free node.
			for cursor < n && (inOne[cursor] || int(c.Fixed[cursor]) == other) {
				cursor++
			}
			if cursor == n {
				break
			}
			u = cursor
		}
		add(u)
	}
	for u := range part {
		if inOne[u] {
			part[u] = int32(side)
		} else {
			part[u] = int32(other)
		}
	}
	return part
}

// refineFM improves part in place with gain-bucket FM passes under these
// balance semantics: only moves that do not worsen the balance violation are applied in the hill-climb phase, and an
// over-limit part sheds best-gain weight-bearing nodes (even at negative
// gain) until balanced or stuck. Gains are computed once per level and
// maintained incrementally on each move; the hill-climb always takes the
// current best candidate from the buckets. refineFM runs the full pass
// budget.
func refineFM(fs *fmScratch, c *CSR, total []int64, part []int32, opts Options) {
	refineFMPasses(fs, c, total, part, opts, 0)
}

// refineFMPasses is refineFM with an explicit pass cap; maxP <= 0 means
// the full (size-tiered) budget.
func refineFMPasses(fs *fmScratch, c *CSR, total []int64, part []int32, opts Options, maxP int) {
	n := c.Len()
	if n == 0 {
		return
	}
	dims := c.Dims
	limit := growTo(fs.limit, 2*dims)
	fs.limit = limit
	for p := 0; p < 2; p++ {
		for d := 0; d < dims; d++ {
			limit[p*dims+d] = int64(float64(total[d]) * opts.frac(p) * (1 + opts.tol(d)))
		}
	}
	pw := growTo(fs.pw, 2*dims)
	fs.pw = pw
	clear(pw)
	for u := 0; u < n; u++ {
		for d := 0; d < dims; d++ {
			pw[int(part[u])*dims+d] += c.W[u*dims+d]
		}
	}
	gain := growTo(fs.gain, n)
	fs.gain = gain
	// ext[u] counts u's neighbors in the opposite part; u is a boundary
	// node iff ext[u] > 0. apply keeps the counts current, so boundary
	// passes never rescan the edge list.
	ext := growTo(fs.ext, n)
	fs.ext = ext
	for u := 0; u < n; u++ {
		var g int64
		var e int32
		pu := part[u]
		for i := c.XAdj[u]; i < c.XAdj[u+1]; i++ {
			if part[c.Adj[i]] == pu {
				g -= c.AdjW[i]
			} else {
				g += c.AdjW[i]
				e++
			}
		}
		gain[u] = g
		ext[u] = e
	}

	partViol := func(p int) int64 {
		var v int64
		for d := 0; d < dims; d++ {
			if over := pw[p*dims+d] - limit[p*dims+d]; over > 0 {
				v += over
			}
		}
		return v
	}
	violation := func() int64 { return partViol(0) + partViol(1) }

	over := func(x, lim int64) int64 {
		if x > lim {
			return x - lim
		}
		return 0
	}
	// moveDelta is the balance-violation change of moving u out of its
	// part, computed in O(dims) from the running part weights.
	moveDelta := func(u int) int64 {
		from := int(part[u])
		to := 1 - from
		var delta int64
		for d := 0; d < dims; d++ {
			w := c.W[u*dims+d]
			pf, lf := pw[from*dims+d], limit[from*dims+d]
			pt, lt := pw[to*dims+d], limit[to*dims+d]
			delta += over(pf-w, lf) - over(pf, lf)
			delta += over(pt+w, lt) - over(pt, lt)
		}
		return delta
	}

	bk := &fs.bk
	locked := growTo(fs.locked, n)
	fs.locked = locked
	// apply moves u to the other part, updating part weights and all
	// neighbor gains in O(deg). With the buckets live (FM pass), every
	// neighbor still awaiting its move this pass is relinked to its new
	// gain bucket; a free neighbor that was never bucketed (interior node
	// on a boundary-only pass) enters now that the move put it on the
	// boundary; locked (already-popped) neighbors only get their gain
	// value refreshed.
	apply := func(u int, bucketLive bool) {
		from := int(part[u])
		to := 1 - from
		for d := 0; d < dims; d++ {
			w := c.W[u*dims+d]
			pw[from*dims+d] -= w
			pw[to*dims+d] += w
		}
		part[u] = int32(to)
		gain[u] = -gain[u]
		deg := c.XAdj[u+1] - c.XAdj[u]
		ext[u] = deg - ext[u] // every incident edge swaps internal/external
		for i := c.XAdj[u]; i < c.XAdj[u+1]; i++ {
			v := int(c.Adj[i])
			w2 := 2 * c.AdjW[i]
			wasIn := bucketLive && bk.in[v]
			if wasIn {
				bk.remove(v) // unlink before the key changes
			}
			if int(part[v]) == to {
				gain[v] -= w2
				ext[v]--
			} else {
				gain[v] += w2
				ext[v]++
			}
			if wasIn {
				bk.insert(v, gain[v])
			} else if bucketLive && !locked[v] && c.Fixed[v] == -1 {
				bk.insert(v, gain[v]) // freshly on the boundary
			}
		}
	}

	moves := fs.moves[:0]
	requeue := growTo(fs.requeue, n)
	fs.requeue = requeue
	// maxDrift aborts a pass once this many tentative moves pass without a
	// new best prefix: the classic FM early exit. Small graphs (everything
	// at or below the coarsening floors) stay inside the budget, so the
	// quality-critical coarse levels still run exhaustive passes; on big
	// fine levels the pass stops probing once the climb has clearly died.
	maxDrift := 16 + n/4
	if maxDrift > 128 {
		maxDrift = 128 // big levels: probing deeper than this never pays
	}
	// Above boundaryMin only boundary nodes seed the buckets: interior
	// nodes have strictly negative gain and join lazily the moment a
	// neighbor's move puts them on the boundary, so a pass costs O(cut)
	// instead of O(n) where the partition is already mostly settled. At or
	// below boundaryMin every free node is bucketed, preserving exhaustive
	// FM on the quality-critical coarse levels.
	boundaryOnly := n > boundaryMin
	// An FM pass sweeps every eligible node with rollback, so it converges
	// in far fewer passes than a positive-gain-only sweep. The small
	// levels (through boundaryMin) keep the full pass budget — that is
	// where multi-start quality is decided and passes are cheap; mid
	// levels get three passes and the big levels two (one productive, one
	// confirming), because each extra pass costs a full heap drain.
	passes := fmPasses
	switch {
	case n > trajectoryCap:
		passes = min(passes, 2)
	case n > boundaryMin:
		passes = min(passes, 3)
	}
	if maxP > 0 {
		passes = min(passes, maxP)
	}
	for pass := 0; pass < passes; pass++ {
		moved := false
		// FM pass: every eligible node enters the buckets at its current
		// gain and is moved tentatively at most once, best-gain-first,
		// skipping (deferring) moves that would worsen balance.
		// Negative-gain moves are taken too — the pass then rolls back to
		// the prefix with the best cumulative gain, which is how FM climbs
		// out of the local minima a positive-only sweep gets stuck in.
		bk.reset(n, gain)
		clear(locked)
		for u := 0; u < n; u++ {
			if c.Fixed[u] != -1 {
				continue
			}
			if boundaryOnly && ext[u] == 0 {
				continue
			}
			bk.append(u, gain[u])
		}
		bk.heapify()
		clear(requeue)
		fs.deferred[0] = fs.deferred[0][:0]
		fs.deferred[1] = fs.deferred[1][:0]
		moves = moves[:0]
		var cum, bestCum int64
		bestLen := 0
		for len(moves)-bestLen < maxDrift {
			u := bk.popMax()
			if u < 0 {
				break
			}
			g := gain[u]
			bk.remove(u)
			locked[u] = true
			if moveDelta(u) > 0 {
				// Infeasible for now: parked until the destination part
				// sheds weight (an apply into u's part re-buckets these).
				fs.deferred[part[u]] = append(fs.deferred[part[u]], int32(u))
				continue
			}
			cum += g
			apply(u, true)
			// u now sits in the destination part; deferred nodes there just
			// saw their target lighten, so they get another chance — but at
			// most maxRequeue chances each, or the churn goes quadratic.
			to := part[u]
			for _, v := range fs.deferred[to] {
				if requeue[v] < maxRequeue {
					requeue[v]++
					bk.insert(int(v), gain[v])
				}
			}
			fs.deferred[to] = fs.deferred[to][:0]
			moves = append(moves, int32(u))
			if cum > bestCum {
				bestCum, bestLen = cum, len(moves)
			}
		}
		// Roll back to the best prefix (ties keep the shortest, so the
		// outcome is deterministic). Buckets are drained here, so plain
		// applies maintain gains and part weights through the undo.
		for i := len(moves) - 1; i >= bestLen; i-- {
			apply(int(moves[i]), false)
		}
		fs.tMoves += int64(bestLen)
		fs.tRollbacks += int64(len(moves) - bestLen)
		if bestCum > 0 {
			moved = true
		}
		// Rebalance: while over limit, take the single move (any free node,
		// either direction) that most reduces total violation, preferring
		// higher cut gain among equally-reducing moves and lower index on
		// full ties (the ascending scan keeps the first). Steepest descent
		// matters on infeasible instances — shedding the best-gain node from
		// the worst part can overshoot the other side's limit and stall
		// where a lighter sibling still makes progress. Every applied move
		// strictly reduces the (integer) violation, so the loop terminates;
		// the iteration cap is a backstop only.
		for iter := 0; iter < 2*n && violation() > 0; iter++ {
			best := -1
			var bestDelta, bestGain int64
			for u := 0; u < n; u++ {
				if c.Fixed[u] != -1 {
					continue
				}
				d := moveDelta(u)
				if d >= 0 || (best != -1 && (d > bestDelta || (d == bestDelta && gain[u] <= bestGain))) {
					continue
				}
				best, bestDelta, bestGain = u, d, gain[u]
			}
			if best == -1 {
				break // no single move reduces violation further
			}
			apply(best, false)
			fs.tMoves++
			moved = true
		}
		if !moved {
			break
		}
	}
	fs.moves = moves
}

// csrCut returns the total weight of edges crossing parts.
func csrCut(c *CSR, part []int32) int64 {
	var cut int64
	for u := 0; u < c.Len(); u++ {
		for i := c.XAdj[u]; i < c.XAdj[u+1]; i++ {
			if v := int(c.Adj[i]); u < v && part[u] != part[v] {
				cut += c.AdjW[i]
			}
		}
	}
	return cut
}

// csrViolation returns the total per-dimension balance violation of part
// under opts' fractions and tolerances.
func csrViolation(c *CSR, total []int64, part []int32, opts Options) int64 {
	dims := c.Dims
	var buf [4]int64 // two parts × up to two dimensions: no allocation
	pw := buf[:]
	if 2*dims > len(buf) {
		pw = make([]int64, 2*dims)
	}
	pw = pw[:2*dims]
	for u := 0; u < c.Len(); u++ {
		for d := 0; d < dims; d++ {
			pw[int(part[u])*dims+d] += c.W[u*dims+d]
		}
	}
	var v int64
	for p := 0; p < 2; p++ {
		for d := 0; d < dims; d++ {
			lim := int64(float64(total[d]) * opts.frac(p) * (1 + opts.tol(d)))
			if ov := pw[p*dims+d] - lim; ov > 0 {
				v += ov
			}
		}
	}
	return v
}
