package partition

import (
	"fmt"

	"mcpart/internal/obs"
)

// Options tunes the partitioner.
type Options struct {
	// Tol is the per-dimension imbalance tolerance: part weight may reach
	// (1+Tol[d]) * total[d]/2. Dimensions beyond len(Tol) use the last
	// entry; an empty slice means 0.10 everywhere.
	Tol []float64
	// Fractions gives each part's target share of every weight dimension
	// (default equal shares). For Bisect it must have length 2 and sum to
	// ~1; KWay splits it across the recursion.
	Fractions []float64
	// Obs, when non-nil, receives the refinement metrics (fm_moves,
	// fm_rollbacks, fm_coarsen_levels, fm_bisections). Hot loops tally
	// into scratch fields and flush once per bisection, so a nil Obs costs
	// nothing on the refinement path.
	Obs *obs.Observer
}

// frac returns part p's target share for a 2-way split. Malformed
// Fractions (wrong length, non-positive sum, or a negative entry) fall
// back to equal shares.
func (o Options) frac(p int) float64 {
	if len(o.Fractions) != 2 {
		return 0.5
	}
	sum := o.Fractions[0] + o.Fractions[1]
	if sum <= 0 || o.Fractions[0] < 0 || o.Fractions[1] < 0 {
		return 0.5
	}
	return o.Fractions[p] / sum
}

// tol returns dimension d's imbalance tolerance. Dimensions beyond
// len(Tol) reuse the last entry; negative entries clamp to 0.
func (o Options) tol(d int) float64 {
	t := 0.10
	if len(o.Tol) > 0 {
		if d >= len(o.Tol) {
			d = len(o.Tol) - 1
		}
		t = o.Tol[d]
	}
	if t < 0 {
		return 0
	}
	return t
}

// The coarsening floors of bisectFast. Coarsening stops once the graph
// has at most coarseFloor nodes (the deep multi-start). fastCoarseFloor
// is the shallow floor bisectFast seeds its second multi-start from: it
// stops coarsening four times earlier, and the larger coarsest graph gives
// the multi-start genuinely distinct candidates to carry through
// uncoarsening instead of sixteen tries collapsing into the same
// tiny-graph optimum.
const (
	coarseFloor     = 24
	fastCoarseFloor = 96
)

// fmPasses bounds the FM refinement passes per level.
const fmPasses = 8

// bisectUnchecked runs the bisection without re-validating g; KWay's
// recursion builds subgraphs that are correct by construction, so only the
// entry points validate.
func bisectUnchecked(g *Graph, opts Options) []int {
	if g.Len() == 0 {
		return nil
	}
	return bisectFast(g, opts)
}

// kwayScratch holds KWay's reusable fine-to-subgraph remap table, shared
// across every level of the recursion (each level rebuilds it from zero),
// and, for a memoized split, the memo, the key of the current recursion
// node (a stack: each level appends and truncates back) and the hit tally.
type kwayScratch struct {
	back []int
	memo *SplitMemo
	key  []byte
	hits int64
}

// remap returns the remap table resized to n and zeroed. Entries hold
// subgraph index + 1, with 0 meaning "not on this side".
func (sc *kwayScratch) remap(n int) []int {
	if cap(sc.back) < n {
		sc.back = make([]int, n)
	}
	sc.back = sc.back[:n]
	clear(sc.back)
	return sc.back
}

// KWay partitions g into k parts (k a power of two) by recursive bisection.
// Fixed assignments must be in [0,k).
func KWay(g *Graph, k int, opts Options) ([]int, error) {
	if err := checkKWay(g, k); err != nil {
		return nil, err
	}
	if k == 1 {
		return make([]int, g.Len()), nil
	}
	return kwayRec(&kwayScratch{}, g, k, opts), nil
}

// checkKWay validates a k-way split's inputs. It runs once per entry
// point; the recursion's subgraphs are symmetric by construction, so
// revalidating at every level would only repeat work.
func checkKWay(g *Graph, k int) error {
	if k < 1 || k&(k-1) != 0 {
		return fmt.Errorf("partition: k=%d is not a power of two", k)
	}
	for u, f := range g.Fixed {
		if f < -1 || f >= k {
			return fmt.Errorf("partition: node %d fixed to %d, want -1..%d", u, f, k-1)
		}
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	return nil
}

func kwayRec(sc *kwayScratch, g *Graph, k int, opts Options) []int {
	mark := len(sc.key)
	if k == 2 {
		half := sc.bisect(g, opts)
		sc.key = sc.key[:mark]
		return half
	}
	// First split: parts < k/2 vs >= k/2, with fraction targets summed per
	// half when provided.
	topOpts := opts
	if len(opts.Fractions) == k {
		var lo, hi float64
		for p, f := range opts.Fractions {
			if p < k/2 {
				lo += f
			} else {
				hi += f
			}
		}
		topOpts.Fractions = []float64{lo, hi}
	} else {
		topOpts.Fractions = nil
	}
	// The top-level split only needs different fixed assignments; weights
	// and adjacency are read-only to the bisection, so share them.
	top := &Graph{NumW: g.NumW, W: g.W, Adj: g.Adj, Fixed: make([]int, g.Len())}
	for u, f := range g.Fixed {
		switch {
		case f == -1:
			top.Fixed[u] = -1
		case f < k/2:
			top.Fixed[u] = 0
		default:
			top.Fixed[u] = 1
		}
	}
	half := sc.bisect(top, topOpts)
	own := len(sc.key)
	out := make([]int, g.Len())
	for side := 0; side < 2; side++ {
		idx := make([]int, 0, g.Len())
		back := sc.remap(g.Len())
		for u := range half {
			if half[u] == side {
				back[u] = len(idx) + 1
				idx = append(idx, u)
			}
		}
		sub := NewGraph(len(idx), g.NumW)
		for i, u := range idx {
			copy(sub.W[i], g.W[u])
			if f := g.Fixed[u]; f != -1 {
				sub.Fixed[i] = f - side*(k/2)
				if sub.Fixed[i] < 0 || sub.Fixed[i] >= k/2 {
					sub.Fixed[i] = -1 // fixed to the other side; unreachable
				}
			}
			// Neighbor lists hold unique targets (Connect merges parallel
			// edges), so append directly; symmetry of g.Adj gives each
			// surviving edge its twin when the neighbor's turn comes.
			for _, e := range g.Adj[u] {
				if j := back[e.To]; j > 0 {
					sub.Adj[i] = append(sub.Adj[i], Edge{To: j - 1, W: e.W})
				}
			}
		}
		subOpts := opts
		if len(opts.Fractions) == k {
			subOpts.Fractions = append([]float64(nil), opts.Fractions[side*(k/2):(side+1)*(k/2)]...)
		} else {
			subOpts.Fractions = nil
		}
		if sc.memo != nil {
			sc.key = append(sc.key[:own], byte(side))
		}
		subPart := kwayRec(sc, sub, k/2, subOpts)
		for i, u := range idx {
			out[u] = side*(k/2) + subPart[i]
		}
	}
	sc.key = sc.key[:mark]
	return out
}
