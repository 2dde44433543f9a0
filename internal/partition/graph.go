// Package partition implements a multilevel multi-constraint graph
// partitioner in the style of METIS (Karypis & Kumar), which the paper uses
// to divide the coarsened program-level data-flow graph across cluster
// memories. It supports:
//
//   - multiple node weights (multi-constraint balancing, e.g. data bytes
//     and operation counts simultaneously);
//   - fixed vertices (pre-assigned to a part and never moved), used to lock
//     memory operations to their object's home cluster and to anchor
//     region live-in values;
//   - heavy-edge-matching coarsening, greedy graph-growing initial
//     partitioning, and Fiduccia–Mattheyses refinement at every
//     uncoarsening level;
//   - k-way partitioning by recursive bisection (k a power of two).
//
// The engine runs over CSR arrays with gain-bucket FM refinement,
// heap-based growing and multi-start (csr.go, fm.go), and graphs of at
// most ten nodes are enumerated exactly. It is serial and fully
// deterministic: ties break on fixed rules (node index, or insertion order
// within a gain bucket), and multi-start winners are chosen by (balance
// violation, cut, try index). Callers that want parallelism run
// independent bisections side by side; none fans out inside one.
package partition

import "fmt"

// Edge is one endpoint of an undirected weighted edge.
type Edge struct {
	To int
	W  int64
}

// Graph is an undirected graph with vector node weights.
type Graph struct {
	NumW  int       // weight dimensions per node
	W     [][]int64 // [node][dim]
	Adj   [][]Edge  // adjacency; both directions present
	Fixed []int     // pre-assigned part per node, or -1
}

// NewGraph creates a graph with n nodes and dims weight dimensions, all
// weights zero and all nodes free.
func NewGraph(n, dims int) *Graph {
	g := &Graph{
		NumW:  dims,
		W:     make([][]int64, n),
		Adj:   make([][]Edge, n),
		Fixed: make([]int, n),
	}
	backing := make([]int64, n*dims)
	for i := range g.W {
		g.W[i] = backing[i*dims : (i+1)*dims : (i+1)*dims]
		g.Fixed[i] = -1
	}
	return g
}

// Reserve presizes the adjacency lists for the given per-node half-edge
// counts, carving all lists out of one backing array. deg[i] must be an
// upper bound on the half-edges Connect will add at node i (parallel edges
// count once per Connect call; merging only shrinks the final length).
// Purely an allocation hint: connectivity and results are unaffected.
func (g *Graph) Reserve(deg []int) {
	total := 0
	for _, d := range deg {
		total += d
	}
	backing := make([]Edge, total)
	off := 0
	for i, d := range deg {
		g.Adj[i] = backing[off : off : off+d]
		off += d
	}
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.W) }

// Connect adds weight w to the undirected edge {u, v}, merging parallel
// edges. Self-edges are ignored.
func (g *Graph) Connect(u, v int, w int64) {
	if u == v || w == 0 {
		return
	}
	g.addHalf(u, v, w)
	g.addHalf(v, u, w)
}

func (g *Graph) addHalf(u, v int, w int64) {
	for i := range g.Adj[u] {
		if g.Adj[u][i].To == v {
			g.Adj[u][i].W += w
			return
		}
	}
	g.Adj[u] = append(g.Adj[u], Edge{To: v, W: w})
}

// TotalW returns the per-dimension sum of node weights.
func (g *Graph) TotalW() []int64 {
	tot := make([]int64, g.NumW)
	for _, w := range g.W {
		for d, x := range w {
			tot[d] += x
		}
	}
	return tot
}

// Validate checks structural consistency (symmetric adjacency, weight
// dimensions, fixed parts in range).
func (g *Graph) Validate() error {
	n := g.Len()
	for u := range g.Adj {
		if len(g.W[u]) != g.NumW {
			return fmt.Errorf("node %d has %d weights, want %d", u, len(g.W[u]), g.NumW)
		}
		for _, e := range g.Adj[u] {
			if e.To < 0 || e.To >= n {
				return fmt.Errorf("node %d has edge to %d out of range", u, e.To)
			}
			if e.To == u {
				return fmt.Errorf("node %d has a self-edge", u)
			}
			found := false
			for _, r := range g.Adj[e.To] {
				if r.To == u && r.W == e.W {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("edge %d->%d (w=%d) has no symmetric twin", u, e.To, e.W)
			}
		}
	}
	return nil
}
