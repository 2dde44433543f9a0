package eval

import (
	"testing"

	"mcpart/internal/gdp"
	"mcpart/internal/machine"
)

// TestExhaustiveComplementSymmetry is the property test for the symmetry
// predicate: on the cluster-symmetric paper machine every mask and its
// bitwise complement describe the same placement up to a cluster swap, and
// canonicalization makes their cycle counts (and imbalance) exactly equal
// — not merely close, as the partitioner's lower-cluster tie-breaks would
// otherwise leave them.
func TestExhaustiveComplementSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search is slow")
	}
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	if !cfg.SymmetricClusters() {
		t.Fatal("paper preset must be symmetric")
	}
	ex, err := Exhaustive(c, cfg, Options{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.Mod.Objects)
	full := uint64(1)<<uint(n) - 1
	for _, p := range ex.Points {
		q := ex.Find(full &^ p.Mask)
		if q == nil {
			t.Fatalf("complement of %b missing", p.Mask)
		}
		if p.Cycles != q.Cycles {
			t.Errorf("cycles(%b) = %d but cycles(^) = %d; complements must be exactly equal",
				p.Mask, p.Cycles, q.Cycles)
		}
		if p.Imbalance != q.Imbalance {
			t.Errorf("imbalance(%b) = %v but complement has %v", p.Mask, p.Imbalance, q.Imbalance)
		}
	}
}

// TestExhaustivePrunedMatchesFullSweep pins that the half-space sweep
// matches a full enumeration: every even (canonical) mask is evaluated
// here through RunWithDataMap, and both it and its odd complement must
// report that evaluation's cycles and imbalance. The enumeration runs on a
// memo-less copy of the program, so the cache cannot paper over a pruning
// bug.
func TestExhaustivePrunedMatchesFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search is slow")
	}
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	pruned, err := Exhaustive(c, cfg, Options{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	bare := memoless(c)
	defer bare.lease()()
	n := len(c.Mod.Objects)
	full := uint64(1)<<uint(n) - 1
	if len(pruned.Points) != 1<<uint(n) {
		t.Fatalf("got %d points, want 2^%d", len(pruned.Points), n)
	}
	var totalBytes int64
	for i := 0; i < n; i++ {
		totalBytes += objectBytes(c, i)
	}
	for mask := uint64(0); mask <= full; mask += 2 {
		dm := make(gdp.DataMap, n)
		clusterBytes := make([]int64, 2)
		for j := range dm {
			dm[j] = int(mask >> uint(j) & 1)
			clusterBytes[dm[j]] += objectBytes(c, j)
		}
		r, err := RunWithDataMap(bare, cfg, dm, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		imb := imbalanceOf(clusterBytes, totalBytes)
		for _, m := range []uint64{mask, ^mask & full} {
			// Points[m].Mask == m is the mask-order invariant Find relies on.
			if p := pruned.Points[m]; p.Mask != m || p.Cycles != r.Cycles || p.Imbalance != imb {
				t.Fatalf("Points[%d] = %+v, enumeration has (%d, %v)", m, p, r.Cycles, imb)
			}
		}
	}
}

// TestExhaustiveAsymmetricKeepsFullSweep pins that machines failing the
// symmetry predicate are swept without canonicalization: complements are
// genuinely different placements there (swapping clusters is not a
// relabeling), and the sweep must keep them independent.
func TestExhaustiveAsymmetricKeepsFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search is slow")
	}
	c := prepBench(t, "fir")
	cfg := machine.Heterogeneous2(5)
	if cfg.SymmetricClusters() {
		t.Fatal("Heterogeneous2 must not be symmetric")
	}
	ex, err := Exhaustive(c, cfg, Options{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.Mod.Objects)
	if len(ex.Points) != 1<<uint(n) {
		t.Fatalf("got %d points, want full 2^%d", len(ex.Points), n)
	}
	// On this machine the big cluster genuinely beats the small one for
	// at least one mapping pair, which canonicalization would have hidden.
	diff := false
	full := uint64(1)<<uint(n) - 1
	for _, p := range ex.Points {
		if q := ex.Find(full &^ p.Mask); q != nil && q.Cycles != p.Cycles {
			diff = true
			break
		}
	}
	if !diff {
		t.Log("note: all complement pairs equal on the asymmetric machine (allowed, but unexpected)")
	}
}

// TestFindMaskIndexed pins the satellite rewrite of Find: O(1) for
// mask-ordered results, linear fallback for hand-assembled ones, nil for
// out-of-range masks.
func TestFindMaskIndexed(t *testing.T) {
	ordered := &ExhaustiveResult{Points: []MappingPoint{
		{Mask: 0, Cycles: 10}, {Mask: 1, Cycles: 11}, {Mask: 2, Cycles: 12}, {Mask: 3, Cycles: 13},
	}}
	for m := uint64(0); m < 4; m++ {
		p := ordered.Find(m)
		if p == nil || p.Mask != m {
			t.Fatalf("Find(%d) = %v", m, p)
		}
		if p != &ordered.Points[m] {
			t.Fatalf("Find(%d) must return a pointer into Points", m)
		}
	}
	if ordered.Find(4) != nil {
		t.Error("Find past the end must return nil")
	}
	// Hand-assembled, unordered points still resolve via the fallback.
	scattered := &ExhaustiveResult{Points: []MappingPoint{
		{Mask: 5, Cycles: 50}, {Mask: 2, Cycles: 20},
	}}
	if p := scattered.Find(2); p == nil || p.Cycles != 20 {
		t.Errorf("fallback Find(2) = %v", p)
	}
	if p := scattered.Find(5); p == nil || p.Cycles != 50 {
		t.Errorf("fallback Find(5) = %v", p)
	}
	if scattered.Find(3) != nil {
		t.Error("missing mask must return nil")
	}
}
