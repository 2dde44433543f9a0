package eval

import (
	"context"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/machine"
	"mcpart/internal/progen"
)

// TestBestMappingOptimal is the branch-and-bound acceptance property: on
// every benchmark in the suite the search returns a mask whose cycle count
// equals the exhaustive sweep's Best, and the mask's own point confirms it
// (the optimum is achieved, not just matched numerically).
func TestBestMappingOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive verification is slow")
	}
	for _, b := range bench.All() {
		c := prepBench(t, b.Name)
		for _, lat := range []int{1, 5} {
			cfg := machine.Paper2Cluster(lat)
			ex, err := Exhaustive(c, cfg, Options{}, 16)
			if err != nil {
				t.Fatalf("%s lat%d exhaustive: %v", b.Name, lat, err)
			}
			best, err := BestMapping(c, cfg, Options{}, 0)
			if err != nil {
				t.Fatalf("%s lat%d best: %v", b.Name, lat, err)
			}
			if best.Cycles != ex.Best {
				t.Fatalf("%s lat%d: BestMapping cycles %d, exhaustive best %d",
					b.Name, lat, best.Cycles, ex.Best)
			}
			p := ex.Find(best.Mask)
			if p == nil || p.Cycles != best.Cycles {
				t.Fatalf("%s lat%d: mask %#x does not achieve the reported optimum", b.Name, lat, best.Mask)
			}
			if best.NodesVisited <= 0 {
				t.Fatalf("%s lat%d: no DFS nodes reported", b.Name, lat)
			}
		}
	}
}

// TestBestMappingAsymmetric covers the unpinned search (no canonical
// object-0 branch cut) on a machine that fails the symmetry predicate.
func TestBestMappingAsymmetric(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive verification is slow")
	}
	c := prepBench(t, "fir")
	cfg := machine.Heterogeneous2(5)
	ex, err := Exhaustive(c, cfg, Options{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	best, err := BestMapping(c, cfg, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cycles != ex.Best {
		t.Fatalf("BestMapping cycles %d, exhaustive best %d", best.Cycles, ex.Best)
	}
	if p := ex.Find(best.Mask); p == nil || p.Cycles != best.Cycles {
		t.Fatalf("mask %#x does not achieve the reported optimum", best.Mask)
	}
}

// TestBestMappingGenerated cross-checks the search against the sweep on
// generated programs whose object counts sit at the sweep's practical edge,
// then runs an instance past the sweep cap to pin that the search still
// completes and prunes.
func TestBestMappingGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-program verification is slow")
	}
	cfg := machine.Paper2Cluster(5)
	for _, seed := range []int64{1, 7} {
		src := progen.Generate(seed, progen.Options{MaxGlobals: 9})
		c, err := PrepareOpts(context.Background(), "progen", src, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ex, err := Exhaustive(c, cfg, Options{}, 10)
		if err != nil {
			t.Fatalf("seed %d exhaustive: %v", seed, err)
		}
		best, err := BestMapping(c, cfg, Options{}, 0)
		if err != nil {
			t.Fatalf("seed %d best: %v", seed, err)
		}
		if best.Cycles != ex.Best {
			t.Fatalf("seed %d: BestMapping cycles %d, exhaustive best %d", seed, best.Cycles, ex.Best)
		}
	}
}

// TestBestMappingCap pins the object-count guard.
func TestBestMappingCap(t *testing.T) {
	c := prepBench(t, "fir")
	cfg := machine.Paper2Cluster(5)
	if _, err := BestMapping(c, cfg, Options{}, 1); err == nil {
		t.Fatal("expected object-cap error")
	}
}
