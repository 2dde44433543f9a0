package partition

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestBuildCSRRoundTrip checks that the flattened view reproduces the
// Graph exactly: weights, fixed assignments, and every directed edge half
// in the original adjacency order.
func TestBuildCSRRoundTrip(t *testing.T) {
	g := randGraph(80, 5, 3, 7, true)
	c := BuildCSR(g)
	if err := c.Validate(); err != nil {
		t.Fatalf("built CSR invalid: %v", err)
	}
	if c.Len() != g.Len() || c.Dims != g.NumW {
		t.Fatalf("shape: %d/%d nodes, %d/%d dims", c.Len(), g.Len(), c.Dims, g.NumW)
	}
	for u := 0; u < g.Len(); u++ {
		for d := 0; d < g.NumW; d++ {
			if c.W[u*c.Dims+d] != g.W[u][d] {
				t.Fatalf("node %d dim %d weight %d, want %d", u, d, c.W[u*c.Dims+d], g.W[u][d])
			}
		}
		if int(c.Fixed[u]) != g.Fixed[u] {
			t.Fatalf("node %d fixed %d, want %d", u, c.Fixed[u], g.Fixed[u])
		}
		deg := int(c.XAdj[u+1] - c.XAdj[u])
		if deg != len(g.Adj[u]) {
			t.Fatalf("node %d degree %d, want %d", u, deg, len(g.Adj[u]))
		}
		for i, e := range g.Adj[u] {
			j := int(c.XAdj[u]) + i
			if int(c.Adj[j]) != e.To || c.AdjW[j] != e.W {
				t.Fatalf("node %d edge %d: (%d,%d), want (%d,%d)", u, i, c.Adj[j], c.AdjW[j], e.To, e.W)
			}
		}
	}
	tg, tc := g.TotalW(), c.TotalW()
	for d := range tg {
		if tg[d] != tc[d] {
			t.Fatalf("total dim %d: %d vs %d", d, tc[d], tg[d])
		}
	}
}

// TestCSRValidateMalformed drives CSR.Validate through every malformation
// it documents.
func TestCSRValidateMalformed(t *testing.T) {
	// good is a 3-node path 0-1-2 with unit weights.
	good := func() *CSR {
		return &CSR{
			Dims:  1,
			XAdj:  []int32{0, 1, 3, 4},
			Adj:   []int32{1, 0, 2, 1},
			AdjW:  []int64{5, 5, 7, 7},
			W:     []int64{1, 1, 1},
			Fixed: []int32{-1, -1, -1},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good CSR rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*CSR)
		want string
	}{
		{"negative dims", func(c *CSR) { c.Dims = -1 }, "negative weight dimension"},
		{"offset count", func(c *CSR) { c.XAdj = c.XAdj[:3] }, "offsets"},
		{"node weight count", func(c *CSR) { c.W = c.W[:2] }, "node weights"},
		{"edge weight count", func(c *CSR) { c.AdjW = c.AdjW[:3] }, "edge weights"},
		{"offset start", func(c *CSR) { c.XAdj[0] = 1 }, "offsets start"},
		{"offset end", func(c *CSR) { c.XAdj[3] = 3 }, "offsets end"},
		{"decreasing offsets", func(c *CSR) { c.XAdj[1] = 3; c.XAdj[2] = 1 }, "offsets decrease"},
		{"fixed range", func(c *CSR) { c.Fixed[1] = -2 }, "fixed"},
		{"neighbor range", func(c *CSR) { c.Adj[0] = 9 }, "out of range"},
		{"self edge", func(c *CSR) { c.Adj[0] = 0 }, "self-edge"},
		{"missing twin", func(c *CSR) { c.Adj[3] = 0; c.AdjW[3] = 7 }, "twin"},
		{"weight mismatch twin", func(c *CSR) { c.AdjW[2] = 8 }, "twin"},
	}
	for _, tc := range cases {
		c := good()
		tc.mut(c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.name, err, tc.want)
		}
	}
	empty := &CSR{XAdj: []int32{0}}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty CSR rejected: %v", err)
	}
	badEmpty := &CSR{XAdj: []int32{0}, Adj: []int32{0}, AdjW: []int64{1}}
	if err := badEmpty.Validate(); err == nil {
		t.Error("empty CSR with edges accepted")
	}
}

// TestGraphValidateMalformed covers Graph.Validate on inputs a buggy
// caller could hand the partitioner entry points.
func TestGraphValidateMalformed(t *testing.T) {
	mk := func() *Graph {
		g := NewGraph(3, 2)
		g.Connect(0, 1, 4)
		g.Connect(1, 2, 6)
		return g
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("good graph rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Graph)
	}{
		{"short weight vector", func(g *Graph) { g.W[1] = g.W[1][:1] }},
		{"edge out of range", func(g *Graph) { g.Adj[0] = append(g.Adj[0], Edge{To: 5, W: 1}) }},
		{"negative target", func(g *Graph) { g.Adj[0] = append(g.Adj[0], Edge{To: -1, W: 1}) }},
		{"self edge", func(g *Graph) { g.Adj[2] = append(g.Adj[2], Edge{To: 2, W: 1}) }},
		{"asymmetric edge", func(g *Graph) { g.Adj[0] = append(g.Adj[0], Edge{To: 2, W: 3}) }},
		{"twin weight mismatch", func(g *Graph) { g.Adj[0][0].W = 99 }},
	}
	for _, tc := range cases {
		g := mk()
		tc.mut(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// legacyCoarsen is the original partitioner engine's heavy-edge matching
// round over per-node adjacency lists, kept as coarsenCSR's exact
// reference. It returns the coarse graph, the fine-to-coarse map, and
// whether the graph actually shrank.
func legacyCoarsen(g *Graph) (*Graph, []int, bool) {
	n := g.Len()
	total := g.TotalW()
	// Limit merged node weight so coarse nodes stay partitionable.
	maxW := make([]int64, g.NumW)
	for d, t := range total {
		maxW[d] = t/3 + 1
	}
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	// Visit nodes in descending order of incident edge weight so heavy
	// structures merge first; ties break on index for determinism.
	order := make([]int, n)
	incident := make([]int64, n)
	for u := range order {
		order[u] = u
		for _, e := range g.Adj[u] {
			incident[u] += e.W
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if incident[a] != incident[b] {
			return incident[a] > incident[b]
		}
		return a < b
	})
	matched := 0
	for _, u := range order {
		if match[u] != -1 {
			continue
		}
		best, bestW := -1, int64(-1)
		for _, e := range g.Adj[u] {
			v := e.To
			if match[v] != -1 {
				continue
			}
			if g.Fixed[u] != -1 && g.Fixed[v] != -1 && g.Fixed[u] != g.Fixed[v] {
				continue // cannot merge nodes locked to different parts
			}
			ok := true
			for d := range maxW {
				if g.W[u][d]+g.W[v][d] > maxW[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if e.W > bestW || (e.W == bestW && v < best) {
				best, bestW = v, e.W
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
			matched += 2
		} else {
			match[u] = u
		}
	}
	if matched < n/10 {
		return nil, nil, false
	}
	// Build the coarse graph.
	cmap := make([]int, n)
	for i := range cmap {
		cmap[i] = -1
	}
	cn := 0
	for u := 0; u < n; u++ {
		if cmap[u] != -1 {
			continue
		}
		cmap[u] = cn
		if match[u] != u {
			cmap[match[u]] = cn
		}
		cn++
	}
	cg := NewGraph(cn, g.NumW)
	for u := 0; u < n; u++ {
		cu := cmap[u]
		for d, w := range g.W[u] {
			cg.W[cu][d] += w
		}
		if g.Fixed[u] != -1 {
			cg.Fixed[cu] = g.Fixed[u]
		}
	}
	for u := 0; u < n; u++ {
		cu := cmap[u]
		for _, e := range g.Adj[u] {
			cv := cmap[e.To]
			if cu < cv {
				cg.Connect(cu, cv, e.W)
			}
		}
	}
	return cg, cmap, true
}

// TestCoarsenCSRMatchesLegacy pins the CSR coarsening to legacyCoarsen:
// identical matchings produce an identical coarse graph up to adjacency
// order, so compare node count, weights, fixed flags, and the merged
// neighbor weight maps.
func TestCoarsenCSRMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randGraph(200, 6, 2, seed, seed%2 == 0)
		cgLegacy, cmapLegacy, okLegacy := legacyCoarsen(g)
		csr := BuildCSR(g)
		cgFast, cmapFast, okFast := coarsenCSR(&fmScratch{}, csr, csr.TotalW())
		if okLegacy != okFast {
			t.Fatalf("seed %d: shrunk %v vs %v", seed, okFast, okLegacy)
		}
		if !okLegacy {
			continue
		}
		if cgFast.Len() != cgLegacy.Len() {
			t.Fatalf("seed %d: %d coarse nodes, want %d", seed, cgFast.Len(), cgLegacy.Len())
		}
		for u := range cmapLegacy {
			if int(cmapFast[u]) != cmapLegacy[u] {
				t.Fatalf("seed %d: cmap[%d] = %d, want %d", seed, u, cmapFast[u], cmapLegacy[u])
			}
		}
		if err := cgFast.Validate(); err != nil {
			t.Fatalf("seed %d: coarse CSR invalid: %v", seed, err)
		}
		for cu := 0; cu < cgLegacy.Len(); cu++ {
			for d := 0; d < cgLegacy.NumW; d++ {
				if cgFast.W[cu*cgFast.Dims+d] != cgLegacy.W[cu][d] {
					t.Fatalf("seed %d: coarse node %d dim %d weight mismatch", seed, cu, d)
				}
			}
			if int(cgFast.Fixed[cu]) != cgLegacy.Fixed[cu] {
				t.Fatalf("seed %d: coarse node %d fixed mismatch", seed, cu)
			}
			want := map[int32]int64{}
			for _, e := range cgLegacy.Adj[cu] {
				want[int32(e.To)] = e.W
			}
			got := map[int32]int64{}
			for i := cgFast.XAdj[cu]; i < cgFast.XAdj[cu+1]; i++ {
				got[cgFast.Adj[i]] = cgFast.AdjW[i]
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: coarse node %d has %d neighbors, want %d", seed, cu, len(got), len(want))
			}
			for v, w := range want {
				if got[v] != w {
					t.Fatalf("seed %d: coarse edge %d-%d weight %d, want %d", seed, cu, v, got[v], w)
				}
			}
		}
	}
}

// randGraph builds a connected random graph: a spanning path plus extra
// random edges up to roughly the requested average degree, weights in
// [1,100] per dimension, and (optionally) a few fixed nodes.
func randGraph(n, deg, dims int, seed int64, withFixed bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n, dims)
	for u := 0; u < n; u++ {
		for d := 0; d < dims; d++ {
			g.W[u][d] = int64(1 + rng.Intn(100))
		}
	}
	for u := 1; u < n; u++ {
		g.Connect(u-1, u, int64(1+rng.Intn(50)))
	}
	extra := n * (deg - 2) / 2
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.Connect(u, v, int64(1+rng.Intn(50)))
		}
	}
	if withFixed {
		for i := 0; i <= n/64; i++ {
			g.Fixed[rng.Intn(n)] = rng.Intn(2)
		}
	}
	return g
}

// BuildCSR flattens g into CSR form. The result shares no memory with g.
func BuildCSR(g *Graph) *CSR {
	return buildCSRInto(new(CSR), g)
}

// Validate checks structural consistency of the CSR arrays: offset
// monotonicity, array lengths, neighbor ranges, no self-edges, and
// undirected symmetry (every directed half has a twin of equal weight).
func (c *CSR) Validate() error {
	n := c.Len()
	if c.Dims < 0 {
		return fmt.Errorf("csr: negative weight dimension count %d", c.Dims)
	}
	if len(c.XAdj) != n+1 {
		return fmt.Errorf("csr: %d nodes but %d offsets, want %d", n, len(c.XAdj), n+1)
	}
	if len(c.W) != n*c.Dims {
		return fmt.Errorf("csr: %d node weights, want %d", len(c.W), n*c.Dims)
	}
	if len(c.AdjW) != len(c.Adj) {
		return fmt.Errorf("csr: %d edge weights for %d edges", len(c.AdjW), len(c.Adj))
	}
	if n == 0 {
		if len(c.Adj) != 0 {
			return fmt.Errorf("csr: edges on an empty graph")
		}
		return nil
	}
	if c.XAdj[0] != 0 {
		return fmt.Errorf("csr: offsets start at %d, want 0", c.XAdj[0])
	}
	if int(c.XAdj[n]) != len(c.Adj) {
		return fmt.Errorf("csr: offsets end at %d, want %d", c.XAdj[n], len(c.Adj))
	}
	// Check every offset before scanning any edge: the twin searches below
	// index Adj with other nodes' offsets, so a bad offset anywhere must be
	// rejected before it can send a scan out of bounds.
	for u := 0; u < n; u++ {
		if c.XAdj[u] > c.XAdj[u+1] {
			return fmt.Errorf("csr: offsets decrease at node %d (%d > %d)", u, c.XAdj[u], c.XAdj[u+1])
		}
		if c.Fixed[u] < -1 {
			return fmt.Errorf("csr: node %d fixed to %d, want >= -1", u, c.Fixed[u])
		}
	}
	for u := 0; u < n; u++ {
		for i := c.XAdj[u]; i < c.XAdj[u+1]; i++ {
			v := c.Adj[i]
			if v < 0 || int(v) >= n {
				return fmt.Errorf("csr: node %d has edge to %d out of range", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("csr: node %d has a self-edge", u)
			}
			found := false
			for j := c.XAdj[v]; j < c.XAdj[v+1]; j++ {
				if int(c.Adj[j]) == u && c.AdjW[j] == c.AdjW[i] {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("csr: edge %d->%d (w=%d) has no symmetric twin", u, v, c.AdjW[i])
			}
		}
	}
	return nil
}
