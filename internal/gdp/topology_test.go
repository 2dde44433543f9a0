package gdp

import (
	"reflect"
	"testing"

	"mcpart/internal/machine"
)

// TestPartitionDataOnUniformMatchesPlain pins the conformance guarantee:
// on uniform-latency machines (bus, or a uniform explicit matrix) the
// machine-aware entry point is bit-identical to the plain k-way path —
// the topology remap must recognize uniformity and keep the identity
// labeling.
func TestPartitionDataOnUniformMatchesPlain(t *testing.T) {
	mod, prof := prep(t, balancedSrc)
	plain, err := PartitionData(mod, prof, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*machine.Config{
		machine.FourCluster(5),
		machine.AsMatrix(machine.FourCluster(5)),
	} {
		on, err := PartitionDataOn(mod, prof, cfg, Options{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(plain.DataMap, on.DataMap) {
			t.Errorf("%s: PartitionDataOn %v != PartitionData %v", cfg.Name, on.DataMap, plain.DataMap)
		}
		if plain.CutWeight != on.CutWeight {
			t.Errorf("%s: cut weight %d != %d", cfg.Name, on.CutWeight, plain.CutWeight)
		}
	}
}

// remap runs the topology relabelling on a k-part partition whose
// part-pair cut weights are exactly the given edges, and returns each
// part's cluster.
func remap(k int, edges []struct {
	u, v int
	w    int64
}, cfg *machine.Config, fractions []float64) []int {
	pairW := make([]int64, k*k)
	for _, e := range edges {
		pairW[e.u*k+e.v] += e.w
		pairW[e.v*k+e.u] += e.w
	}
	if perm := topologyPerm(pairW, cfg, fractions); perm != nil {
		return perm
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRemapToTopologyMovesHeavyPairAdjacent: with one dominant
// communicating part pair sitting on opposite corners of a ring under the
// identity labeling, the remap must relabel them onto adjacent clusters.
func TestRemapToTopologyMovesHeavyPairAdjacent(t *testing.T) {
	ring := machine.RingFour(5)
	// Parts 0 and 2 exchange 100 units; under identity they sit 2 hops
	// apart (10 cycles); any adjacent pair costs 5.
	out := remap(4, []struct {
		u, v int
		w    int64
	}{{0, 2, 100}, {0, 1, 1}}, ring, nil)
	if got := ring.MoveLat(out[0], out[2]); got != 5 {
		t.Errorf("heavy pair landed %d cycles apart, want adjacent (5): labeling %v", got, out)
	}
	// All four labels must still be a permutation.
	seen := map[int]bool{}
	for _, c := range out {
		if c < 0 || c >= 4 || seen[c] {
			t.Fatalf("labeling %v is not a permutation", out)
		}
		seen[c] = true
	}
}

// TestRemapToTopologyUniformIsIdentity: on the bus the remap must return
// the partition unchanged (not merely an equal-cost relabeling — the
// identity itself, to keep uniform machines byte-identical to the plain
// path).
func TestRemapToTopologyUniformIsIdentity(t *testing.T) {
	for _, cfg := range []*machine.Config{
		machine.FourCluster(5),
		machine.AsMatrix(machine.FourCluster(5)),
	} {
		pairW := make([]int64, 16)
		pairW[0*4+2], pairW[2*4+0] = 100, 100
		pairW[1*4+3], pairW[3*4+1] = 50, 50
		if perm := topologyPerm(pairW, cfg, nil); perm != nil {
			t.Errorf("%s: uniform machine relabeled to %v", cfg.Name, perm)
		}
	}
}

// TestRemapToTopologyRespectsFractions: a part balanced to a big-memory
// cluster's target may only be relabeled onto a cluster with the same
// target, even when ignoring that would be cheaper.
func TestRemapToTopologyRespectsFractions(t *testing.T) {
	numa := machine.NUMA4(5)
	fractions := numa.MemFractions() // [0.375 0.375 0.125 0.125]
	// Parts 0 (big memory) and 2 (small memory) communicate heavily.
	// Unconstrained, the remap would co-locate them inside one node; the
	// fraction guard only allows {0,1} and {2,3} to trade places.
	out := remap(4, []struct {
		u, v int
		w    int64
	}{{0, 2, 100}}, numa, fractions)
	for p := 0; p < 4; p++ {
		if fractions[p] != fractions[out[p]] {
			t.Fatalf("part %d (share %v) relabeled to cluster %d (share %v): %v",
				p, fractions[p], out[p], fractions[out[p]], out)
		}
	}
	// The heavy pair is condemned to cross nodes (20 cycles) whatever the
	// legal labeling; the remap must not have pretended otherwise.
	if got := numa.MoveLat(out[0], out[2]); got != 20 {
		t.Errorf("heavy pair at %d cycles; every fraction-preserving labeling gives 20", got)
	}
}

// TestPartitionDataOnNUMA4 drives the machine-aware entry point end to
// end: memory fractions default from the machine's capacities, the
// partition respects them, and the data map is valid.
func TestPartitionDataOnNUMA4(t *testing.T) {
	mod, prof := prep(t, balancedSrc)
	numa := machine.NUMA4(5)
	res, err := PartitionDataOn(mod, prof, numa, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.DataMap.Validate(mod, 4); err != nil {
		t.Fatal(err)
	}
	bytes := memBytesPerCluster(mod, res.DataMap, prof, 4)
	node0 := bytes[0] + bytes[1]
	node1 := bytes[2] + bytes[3]
	if node0 < node1 {
		t.Errorf("big-memory node holds %d bytes, small node %d; capacities are 3:1", node0, node1)
	}
}
