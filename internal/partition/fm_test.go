package partition

import (
	"fmt"
	"math/rand"
	"testing"
)

// violCut scores a bisection the way bestInitialFM does: total
// balance violation first, cut weight second.
func violCut(g *Graph, part []int, opts Options) (int64, int64) {
	total := g.TotalW()
	pw := PartWeights(g, part, 2)
	var viol int64
	for p := 0; p < 2; p++ {
		for d, t := range total {
			limit := int64(float64(t) * opts.frac(p) * (1 + opts.tol(d)))
			if over := pw[p][d] - limit; over > 0 {
				viol += over
			}
		}
	}
	return viol, CutWeight(g, part)
}

// legacyBisections records, per random-graph configuration and seed 0..7,
// the (balance violation, cut weight) that the original per-node
// partitioner engine (formerly Options.Legacy) returned for Bisect at
// Tol 0.15. That engine was deterministic, so these are exactly its
// results; it is deleted, and they stay as the current engine's quality
// floor.
var legacyBisections = []struct {
	n, deg, dims int
	withFixed    bool
	seeds        [8][2]int64
}{
	{60, 4, 1, false, [8][2]int64{{0, 557}, {0, 304}, {0, 418}, {0, 308}, {0, 404}, {0, 390}, {0, 347}, {0, 389}}},
	{200, 4, 2, true, [8][2]int64{{0, 1410}, {0, 1251}, {0, 1530}, {0, 1301}, {0, 1240}, {0, 1173}, {0, 1396}, {0, 1386}}},
	{300, 6, 1, true, [8][2]int64{{0, 4113}, {0, 4244}, {0, 3958}, {0, 4316}, {0, 4579}, {0, 4416}, {0, 4849}, {0, 4823}}},
	{500, 5, 3, true, [8][2]int64{{0, 5065}, {0, 5288}, {0, 4956}, {0, 4883}, {0, 5531}, {0, 5449}, {0, 5418}, {0, 5561}}},
}

// TestFastNoWorseThanLegacy is the quality property pinning the
// partitioner's results to the recorded legacyBisections on seeded random
// graphs (with fixed nodes and multi-dimensional weights):
// lexicographically by (balance violation, cut weight), the result is
// never worse. In particular it never violates a tolerance the legacy
// engine satisfied.
func TestFastNoWorseThanLegacy(t *testing.T) {
	for _, c := range legacyBisections {
		for seed, want := range c.seeds {
			g := randGraph(c.n, c.deg, c.dims, int64(seed), c.withFixed)
			opts := Options{Tol: []float64{0.15}}
			fast, err := KWay(g, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			lv, lc := want[0], want[1]
			fv, fc := violCut(g, fast, opts)
			if fv > lv || (fv == lv && fc > lc) {
				t.Errorf("n=%d deg=%d dims=%d seed=%d: fast (viol=%d cut=%d) worse than legacy (viol=%d cut=%d)",
					c.n, c.deg, c.dims, seed, fv, fc, lv, lc)
			}
			for u := range fast {
				if g.Fixed[u] != -1 && fast[u] != g.Fixed[u] {
					t.Fatalf("n=%d seed=%d: fast path moved fixed node %d", c.n, seed, u)
				}
			}
		}
	}
}

// TestFastDeterminism pins the fast path's determinism contract: the
// partition is identical across repeated runs, including on a sparse graph
// whose coarsening stalls with a large coarsest level (hundreds of nodes),
// so the multi-start and the carried trajectories all refine real graphs
// and share one pooled scratch.
func TestFastDeterminism(t *testing.T) {
	g := sparseGraph(2000, 2000, 42)
	if n := coarsestLen(g); n < 400 {
		t.Fatalf("coarsest level has %d nodes, want at least 400", n)
	}
	opts := Options{Tol: []float64{0.15}}
	base, err := KWay(g, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		p, err := KWay(g, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for u := range base {
			if p[u] != base[u] {
				t.Fatalf("rep=%d: nondeterministic at node %d", rep, u)
			}
		}
	}
}

// sparseGraph returns an n-node graph with two weight dimensions, about
// the given number of random edges and n/64+1 fixed nodes. With about one
// edge per node, matching finds too few pairs after a few levels and
// coarsening stops far above coarseFloor.
func sparseGraph(n, edges int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n, 2)
	for u := 0; u < n; u++ {
		for d := 0; d < 2; d++ {
			g.W[u][d] = int64(1 + rng.Intn(100))
		}
	}
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.Connect(u, v, int64(1+rng.Intn(50)))
		}
	}
	for i := 0; i <= n/64; i++ {
		g.Fixed[rng.Intn(n)] = rng.Intn(2)
	}
	return g
}

// coarsestLen returns the node count of the deepest level bisectFast's
// coarsening reaches on g.
func coarsestLen(g *Graph) int {
	fs := new(fmScratch)
	c := buildCSRInto(fs.getCSR(), g)
	total := c.TotalW()
	for levels := 1; c.Len() > coarseFloor && levels < 64; levels++ {
		next, _, ok := coarsenCSR(fs, c, total)
		if !ok {
			break
		}
		c = next
	}
	return c.Len()
}

// legacyKWayCuts records the 4-way cut weight the original per-node
// engine (formerly Options.Legacy) returned at Tol 0.2 on
// randGraph(240, 5, 2, 100+seed, false) for seeds 0..5.
var legacyKWayCuts = [6]int64{4193, 4236, 4035, 4193, 4414, 4073}

// TestKWayFastMatchesQuality runs the 4-way recursion on random graphs
// and checks the total cut is no worse than the recorded legacyKWayCuts.
func TestKWayFastMatchesQuality(t *testing.T) {
	for seed, lc := range legacyKWayCuts {
		g := randGraph(240, 5, 2, 100+int64(seed), false)
		fast, err := KWay(g, 4, Options{Tol: []float64{0.2}})
		if err != nil {
			t.Fatal(err)
		}
		if fc := CutWeight(g, fast); fc > lc {
			t.Errorf("seed %d: fast 4-way cut %d > legacy %d", seed, fc, lc)
		}
	}
}

// TestBucketsBasic exercises the gain-bucket structure directly —
// inserts, removals, relinking, and lazy cursor invalidation — under both
// backends: the linear-scan mode tiny graphs get and the lazy heap used
// above scanSelectMax. The observable drain order must be identical.
func TestBucketsBasic(t *testing.T) {
	for _, mode := range []string{"scan", "heap"} {
		t.Run(mode, func(t *testing.T) {
			n := 8
			if mode == "heap" {
				n = scanSelectMax + 8 // force the heap backend
			}
			gains := make([]int64, n)
			var b buckets
			b.reset(n, gains)
			if wantScan := mode == "scan"; b.scan != wantScan {
				t.Fatalf("scan backend = %v, want %v", b.scan, wantScan)
			}
			for u := 7; u >= 0; u-- {
				gains[u] = int64(u % 3) // gains 0,1,2 shared by several nodes
				b.insert(u, gains[u])
			}
			if got := b.popMax(); got != 2 {
				t.Fatalf("popMax = %d, want 2 (lowest index of gain 2)", got)
			}
			b.remove(2)
			if got := b.popMax(); got != 5 {
				t.Fatalf("popMax after removing 2 = %d, want 5", got)
			}
			// Relink node 5 from gain 2 to gain 10.
			b.remove(5)
			gains[5] = 10
			b.insert(5, 10)
			if got := b.popMax(); got != 5 {
				t.Fatalf("popMax after relink = %d, want 5", got)
			}
			b.remove(5)
			gains[5] = 2
			// Drain: gain-1 nodes then gain-0 nodes, ascending within a bucket.
			var order []int
			for {
				u := b.popMax()
				if u < 0 {
					break
				}
				order = append(order, u)
				b.remove(u)
			}
			want := []int{1, 4, 7, 0, 3, 6}
			if fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("drain order %v, want %v", order, want)
			}
		})
	}
}

// TestBucketsScanMatchesHeap drives the scan and heap backends through one
// seeded random sequence of insert/append/remove/relink/popMax at sizes on
// both sides of the live-node bitset's word boundaries, and requires the
// same popMax at every step.
func TestBucketsScanMatchesHeap(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128} {
		rng := rand.New(rand.NewSource(int64(n)))
		gains := make([]int64, n)
		var scan, heap buckets
		scan.reset(n, gains)
		heap.reset(n, gains)
		heap.scan = false // force the heap backend at this size
		if !scan.scan {
			t.Fatalf("n=%d: scan backend not selected", n)
		}
		dirty := false // appended since the last heapify
		for step := 0; step < 40*n+200; step++ {
			u := rng.Intn(n)
			switch op := rng.Intn(10); {
			case op < 2: // insert
				if !scan.in[u] {
					scan.insert(u, gains[u])
					heap.insert(u, gains[u])
				}
			case op < 3: // append (initial fill); heapified before the next pop
				if !scan.in[u] {
					scan.append(u, gains[u])
					heap.append(u, gains[u])
					dirty = true
				}
			case op < 5: // remove
				scan.remove(u)
				heap.remove(u)
			case op < 7: // relink to a new gain (a plain change when out)
				in := scan.in[u]
				if in {
					scan.remove(u)
					heap.remove(u)
				}
				gains[u] = int64(rng.Intn(9) - 4)
				if in {
					scan.insert(u, gains[u])
					heap.insert(u, gains[u])
				}
			default: // popMax, then usually take the winner out as FM does
				if dirty {
					scan.heapify()
					heap.heapify()
					dirty = false
				}
				s, h := scan.popMax(), heap.popMax()
				if s != h {
					t.Fatalf("n=%d step %d: scan popMax %d, heap %d", n, step, s, h)
				}
				if s >= 0 && rng.Intn(4) > 0 {
					scan.remove(s)
					heap.remove(s)
				}
			}
		}
	}
}
