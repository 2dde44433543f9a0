package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// pathGraph builds a path 0-1-2-...-n-1 with unit weights.
func pathGraph(n int) *Graph {
	g := NewGraph(n, 1)
	for i := 0; i < n; i++ {
		g.W[i][0] = 1
		if i+1 < n {
			g.Connect(i, i+1, 1)
		}
	}
	return g
}

// twoCliques builds two size-m cliques joined by a single light edge: the
// optimal bisection cuts exactly that edge.
func twoCliques(m int) *Graph {
	g := NewGraph(2*m, 1)
	for i := 0; i < 2*m; i++ {
		g.W[i][0] = 1
	}
	for c := 0; c < 2; c++ {
		base := c * m
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				g.Connect(base+i, base+j, 10)
			}
		}
	}
	g.Connect(m-1, m, 1)
	return g
}

func TestConnectMergesParallelEdges(t *testing.T) {
	g := NewGraph(2, 1)
	g.Connect(0, 1, 3)
	g.Connect(0, 1, 4)
	g.Connect(1, 1, 9) // self-edge ignored
	if len(g.Adj[0]) != 1 || g.Adj[0][0].W != 7 {
		t.Fatalf("adj[0] = %v", g.Adj[0])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBisectPath(t *testing.T) {
	g := pathGraph(20)
	part, err := KWay(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cut := CutWeight(g, part); cut != 1 {
		t.Errorf("path cut = %d, want 1 (partition %v)", cut, part)
	}
	pw := PartWeights(g, part, 2)
	if pw[0][0] < 9 || pw[0][0] > 11 {
		t.Errorf("imbalanced: %v", pw)
	}
}

func TestBisectTwoCliques(t *testing.T) {
	g := twoCliques(12)
	part, err := KWay(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cut := CutWeight(g, part); cut != 1 {
		t.Errorf("clique cut = %d, want 1", cut)
	}
	// All of clique 0 on one side.
	for i := 1; i < 12; i++ {
		if part[i] != part[0] {
			t.Fatalf("clique 0 split: %v", part[:12])
		}
	}
}

func TestBisectRespectsFixed(t *testing.T) {
	g := twoCliques(8)
	// Force the cliques onto opposite sides of what cut alone would pick:
	// fix node 0 to part 1 and node 8 to part 0.
	g.Fixed[0] = 1
	g.Fixed[8] = 0
	part, err := KWay(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if part[0] != 1 || part[8] != 0 {
		t.Fatalf("fixed nodes moved: part[0]=%d part[8]=%d", part[0], part[8])
	}
	if cut := CutWeight(g, part); cut != 1 {
		t.Errorf("cut = %d, want 1", cut)
	}
}

func TestBisectBalancesMultiWeight(t *testing.T) {
	// Dim 0: only nodes 0 and 1 carry (equal, huge) data weight; dim 1:
	// everyone carries 1. A valid partition must separate 0 and 1.
	g := NewGraph(10, 2)
	for i := 0; i < 10; i++ {
		g.W[i][1] = 1
	}
	g.W[0][0] = 1000
	g.W[1][0] = 1000
	// Connect everything in a ring so there are edges to trade off.
	for i := 0; i < 10; i++ {
		g.Connect(i, (i+1)%10, 1)
	}
	part, err := KWay(g, 2, Options{Tol: []float64{0.2, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if part[0] == part[1] {
		t.Fatalf("heavy nodes on same side: %v", part)
	}
	pw := PartWeights(g, part, 2)
	if pw[0][0] != 1000 || pw[1][0] != 1000 {
		t.Fatalf("data weight imbalanced: %v", pw)
	}
}

func TestKWayFour(t *testing.T) {
	// Four cliques in a ring: 4-way should cut only the 4 ring edges.
	m := 6
	g := NewGraph(4*m, 1)
	for i := range g.W {
		g.W[i][0] = 1
	}
	for c := 0; c < 4; c++ {
		base := c * m
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				g.Connect(base+i, base+j, 10)
			}
		}
		g.Connect(base+m-1, (base+m)%(4*m), 1)
	}
	part, err := KWay(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each clique must land on a single part, and all four parts used.
	used := map[int]bool{}
	for c := 0; c < 4; c++ {
		p := part[c*m]
		used[p] = true
		for i := 1; i < m; i++ {
			if part[c*m+i] != p {
				t.Fatalf("clique %d split: %v", c, part[c*m:(c+1)*m])
			}
		}
	}
	if len(used) != 4 {
		t.Fatalf("only %d parts used: %v", len(used), part)
	}
}

func TestKWayRejectsNonPowerOfTwo(t *testing.T) {
	g := pathGraph(6)
	if _, err := KWay(g, 3, Options{}); err == nil {
		t.Error("KWay accepted k=3")
	}
}

// TestKWayRejectsBadInputAtEveryK pins that KWay checks its input before
// any shortcut: a node fixed outside [0,k) and an asymmetric adjacency are
// rejected at k=1 exactly as at k=2 and k=4.
func TestKWayRejectsBadInputAtEveryK(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Graph
	}{
		{"fixed out of range", func() *Graph {
			g := pathGraph(6)
			g.Fixed[2] = 5
			return g
		}},
		{"asymmetric adjacency", func() *Graph {
			g := pathGraph(6)
			g.Adj[0] = append(g.Adj[0], Edge{To: 3, W: 1})
			return g
		}},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 2, 4} {
			if part, err := KWay(tc.mk(), k, Options{}); err == nil {
				t.Errorf("%s: KWay accepted k=%d (got %v)", tc.name, k, part)
			}
		}
	}
}

func TestKWayRespectsFixed(t *testing.T) {
	g := pathGraph(16)
	g.Fixed[0] = 3
	g.Fixed[15] = 0
	part, err := KWay(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if part[0] != 3 || part[15] != 0 {
		t.Fatalf("fixed violated: part[0]=%d part[15]=%d", part[0], part[15])
	}
}

func TestBisectEmptyAndTiny(t *testing.T) {
	if p, err := KWay(NewGraph(0, 1), 2, Options{}); err != nil || len(p) != 0 {
		t.Errorf("empty graph: %v %v", p, err)
	}
	g := NewGraph(1, 1)
	g.W[0][0] = 5
	p, err := KWay(g, 2, Options{})
	if err != nil || len(p) != 1 {
		t.Errorf("single node: %v %v", p, err)
	}
}

// Property: on random graphs, Bisect returns a valid 2-partition that
// respects fixed nodes, and balance within tolerance whenever every node
// weight is 1 (always feasible).
func TestBisectQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(60)
		g := NewGraph(n, 1)
		for i := 0; i < n; i++ {
			g.W[i][0] = 1
		}
		edges := n + rng.Intn(3*n)
		for e := 0; e < edges; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.Connect(u, v, int64(1+rng.Intn(9)))
		}
		if rng.Intn(2) == 0 {
			g.Fixed[rng.Intn(n)] = rng.Intn(2)
		}
		part, err := KWay(g, 2, Options{Tol: []float64{0.3}})
		if err != nil {
			return false
		}
		for u := range part {
			if part[u] != 0 && part[u] != 1 {
				return false
			}
			if g.Fixed[u] != -1 && part[u] != g.Fixed[u] {
				return false
			}
		}
		pw := PartWeights(g, part, 2)
		limit := int64(float64(n) / 2 * 1.31)
		return pw[0][0] <= limit && pw[1][0] <= limit
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: refinement never makes the cut worse than the projected cut
// would be on a simple sanity family (two cliques of random size).
func TestBisectCliqueOptimalQuick(t *testing.T) {
	check := func(m8 uint8) bool {
		m := 4 + int(m8)%12
		g := twoCliques(m)
		part, err := KWay(g, 2, Options{})
		if err != nil {
			return false
		}
		return CutWeight(g, part) == 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	g := twoCliques(10)
	g.Connect(3, 14, 2)
	p1, err := KWay(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p2, err := KWay(g, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for u := range p1 {
			if p1[u] != p2[u] {
				t.Fatalf("nondeterministic at node %d", u)
			}
		}
	}
}

func TestKWayFractions(t *testing.T) {
	// 16 unit nodes on a path, 4-way with shares 0.4/0.2/0.2/0.2.
	g := pathGraph(16)
	part, err := KWay(g, 4, Options{
		Tol:       []float64{0.15},
		Fractions: []float64{0.4, 0.2, 0.2, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	pw := PartWeights(g, part, 4)
	if pw[0][0] < 5 || pw[0][0] > 8 {
		t.Errorf("part 0 got %d nodes, want ~6-7 of 16", pw[0][0])
	}
	for p := 1; p < 4; p++ {
		if pw[p][0] < 2 || pw[p][0] > 5 {
			t.Errorf("part %d got %d nodes, want ~3", p, pw[p][0])
		}
	}
}

// CutWeight returns the total weight of edges crossing parts.
func CutWeight(g *Graph, part []int) int64 {
	var cut int64
	for u := range g.Adj {
		for _, e := range g.Adj[u] {
			if u < e.To && part[u] != part[e.To] {
				cut += e.W
			}
		}
	}
	return cut
}

// PartWeights returns per-part, per-dimension weight sums for a k-way
// partition.
func PartWeights(g *Graph, part []int, k int) [][]int64 {
	pw := make([][]int64, k)
	for p := range pw {
		pw[p] = make([]int64, g.NumW)
	}
	for u, w := range g.W {
		for d, x := range w {
			pw[part[u]][d] += x
		}
	}
	return pw
}
