package partition

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchGraphs spans 1k to 100k nodes: the gain-bucket FM has to hold its
// O((V+E) log V)-ish profile out to 100k.
var benchGraphs = []struct {
	n, deg, dims int
}{
	{1_000, 6, 1},
	{10_000, 8, 2},
	{100_000, 8, 2},
}

// regionSizes are the sizes the evaluation pipeline actually partitions:
// RHOP's region graphs, tens of nodes of which about half are fixed
// anchors. Each region arm bisects regionBatch seeded graphs per op, so a
// handful of iterations still measures more than timer noise.
var regionSizes = []int{16, 48, 96}

const regionBatch = 100

// regionGraph builds a region-like graph of n nodes: n - n/2 free ops
// weighted by one of a few block frequencies and chained by dependence
// edges with a few random cross arcs, plus n/2 weightless anchors fixed
// alternately to parts 0 and 1, each tied to one or two ops.
func regionGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	ops := n - n/2
	g := NewGraph(n, 1)
	freqs := []int64{1, 10, 100, 1000}
	for u := 0; u < ops; u++ {
		g.W[u][0] = freqs[u*len(freqs)/ops]
		if u > 0 {
			g.Connect(u-1, u, 1+int64(rng.Intn(8)))
		}
	}
	for e := 0; e < ops/2; e++ {
		if u, v := rng.Intn(ops), rng.Intn(ops); u != v {
			g.Connect(u, v, 1+int64(rng.Intn(8)))
		}
	}
	for a := ops; a < n; a++ {
		g.Fixed[a] = a % 2
		for i := 0; i <= rng.Intn(2); i++ {
			g.Connect(a, rng.Intn(ops), 1+int64(rng.Intn(8)))
		}
	}
	return g
}

// BenchmarkBisect times bisection on batches of region-sized graphs and on
// single 1k-100k node graphs; "cut" is the batch's total cut weight.
func BenchmarkBisect(b *testing.B) {
	run := func(name string, gs []*Graph, opts Options) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var cut int64
			for i := 0; i < b.N; i++ {
				cut = 0
				for _, g := range gs {
					part, err := Bisect(g, opts)
					if err != nil {
						b.Fatal(err)
					}
					cut += CutWeight(g, part)
				}
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
	for _, n := range regionSizes {
		gs := make([]*Graph, regionBatch)
		for i := range gs {
			gs[i] = regionGraph(n, int64(i+1))
		}
		name := fmt.Sprintf("region/n=%d/anchors=%d/graphs=%d", n, n/2, regionBatch)
		run(name, gs, Options{Tol: []float64{0.4}})
	}
	for _, bg := range benchGraphs {
		g := randGraph(bg.n, bg.deg, bg.dims, 1, true)
		name := fmt.Sprintf("n=%d/deg=%d/dims=%d", bg.n, bg.deg, bg.dims)
		run(name, []*Graph{g}, Options{Tol: []float64{0.15}})
	}
}

// sweepGroups is the number of anchor groups a region sweep homes
// independently: like the data objects of a data-mapping search, each
// group's anchors move together, one base-4 digit of the mask per group.
const sweepGroups = 3

// BenchmarkKWay times 4-way splits of single 1k and 10k node graphs, and
// of region-sized graphs under a base-4 sweep of anchor homes (every mask
// of sweepGroups groups, sweepBatch graphs per op) with no memo ("fresh")
// and with one split memo per graph's sweep ("shared"), as RHOP's
// data-mapping search runs them; "cut" is the total cut weight.
func BenchmarkKWay(b *testing.B) {
	for _, bg := range benchGraphs[:2] {
		g := randGraph(bg.n, bg.deg, bg.dims, 1, true)
		name := fmt.Sprintf("k=4/n=%d/dims=%d", bg.n, bg.dims)
		b.Run(name, func(b *testing.B) {
			opts := Options{Tol: []float64{0.15}}
			b.ReportAllocs()
			var cut int64
			for i := 0; i < b.N; i++ {
				part, err := KWay(g, 4, opts)
				if err != nil {
					b.Fatal(err)
				}
				cut = CutWeight(g, part)
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
	const sweepBatch = 4
	masks := 1
	for i := 0; i < sweepGroups; i++ {
		masks *= 4
	}
	for _, n := range regionSizes[1:] {
		var sweeps [][]*Graph // [graph][mask]
		for s := 0; s < sweepBatch; s++ {
			g := regionGraph(n, int64(s+1))
			var sweep []*Graph
			for m := 0; m < masks; m++ {
				h := *g
				h.Fixed = append([]int(nil), g.Fixed...)
				for a := n - n/2; a < n; a++ {
					digits := m
					for i := 0; i < a%sweepGroups; i++ {
						digits /= 4
					}
					h.Fixed[a] = digits % 4
				}
				sweep = append(sweep, &h)
			}
			sweeps = append(sweeps, sweep)
		}
		for _, shared := range []bool{false, true} {
			mode := "fresh"
			if shared {
				mode = "shared"
			}
			name := fmt.Sprintf("k=4/region/n=%d/anchors=%d/masks=%d/graphs=%d/%s", n, n/2, masks, sweepBatch, mode)
			b.Run(name, func(b *testing.B) {
				opts := Options{Tol: []float64{0.4}}
				b.ReportAllocs()
				var cut int64
				for i := 0; i < b.N; i++ {
					cut = 0
					for _, sweep := range sweeps {
						var memo *SplitMemo
						if shared {
							memo = &SplitMemo{}
						}
						for _, g := range sweep {
							part, err := memo.KWay(g, nil, 4, opts)
							if err != nil {
								b.Fatal(err)
							}
							cut += CutWeight(g, part)
						}
					}
				}
				b.ReportMetric(float64(cut), "cut")
			})
		}
	}
}
