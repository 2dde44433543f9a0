package eval

import (
	"testing"

	"mcpart/internal/gdp"
	"mcpart/internal/machine"
	"mcpart/internal/partition"
)

func TestMemFractions(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	if cfg.MemFractions() != nil {
		t.Error("unspecified capacities should give nil fractions")
	}
	asym, err := machine.WithMemCapacities(cfg, 3*8192, 8192)
	if err != nil {
		t.Fatal(err)
	}
	fr := asym.MemFractions()
	if len(fr) != 2 || fr[0] != 0.75 || fr[1] != 0.25 {
		t.Fatalf("fractions = %v, want [0.75 0.25]", fr)
	}
	if _, err := machine.WithMemCapacities(cfg, 1); err == nil {
		t.Error("accepted wrong capacity count")
	}
	if _, err := machine.WithMemCapacities(cfg, 8192, 0); err == nil {
		t.Error("accepted zero capacity")
	}
}

func TestWeightedBisection(t *testing.T) {
	// 16 unit-weight nodes in a ring; target a 3:1 split.
	g := partition.NewGraph(16, 1)
	for i := 0; i < 16; i++ {
		g.W[i][0] = 1
		g.Connect(i, (i+1)%16, 1)
	}
	part, err := partition.KWay(g, 2, partition.Options{
		Tol:       []float64{0.10},
		Fractions: []float64{0.75, 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	var pw [2]int64
	for u, p := range part {
		pw[p] += g.W[u][0]
	}
	// Part 0 should end up near 12, part 1 near 4 (within tolerance).
	if pw[0] < 10 || pw[0] > 14 {
		t.Errorf("weighted split = %v, want ~12/4", pw)
	}
}

func TestAsymmetricMemoryGDP(t *testing.T) {
	// rawcaudio has two 9.6 KiB heap buffers plus ~900 B of tables. On a
	// machine whose cluster 0 memory is 4x cluster 1's, GDP should load
	// cluster 0 with much more than half of the bytes.
	c := prepBench(t, "rawcaudio")
	base := machine.Paper2Cluster(5)
	asym, err := machine.WithMemCapacities(base, 4*16384, 16384)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunGDP(c, asym, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bytes := memBytesPerCluster(c, r.DataMap, 2)
	total := bytes[0] + bytes[1]
	if bytes[0]*10 < total*6 { // expect >= 60% on the big memory
		t.Errorf("asymmetric GDP put only %d of %d bytes on the big cluster", bytes[0], total)
	}
	// Symmetric machine stays balanced for contrast.
	rs, err := RunGDP(c, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb := memBytesPerCluster(c, rs.DataMap, 2)
	if sb[0]*10 > total*7 {
		t.Errorf("symmetric GDP unexpectedly imbalanced: %v", sb)
	}
}

func TestAsymmetricMemoryProfileMax(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	asym, err := machine.WithMemCapacities(machine.Paper2Cluster(5), 4*16384, 16384)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunProfileMax(c, asym, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ProfileMax places by access preference; the capacity fractions act
	// as caps. The invariant is that the small memory is not overfilled
	// beyond its share (plus tolerance): 25% of ~20.5 KiB ≈ 5.1 KiB,
	// with one group allowed to straddle the threshold.
	bytes := memBytesPerCluster(c, r.DataMap, 2)
	total := bytes[0] + bytes[1]
	smallLimit := int64(float64(total)*0.25*1.1) + 9600 // + one buffer straddle
	if bytes[1] > smallLimit {
		t.Errorf("asymmetric ProfileMax overfilled the small memory: %v (limit %d)", bytes, smallLimit)
	}
	if bytes[0] < bytes[1] {
		t.Errorf("asymmetric ProfileMax favored the small memory: %v", bytes)
	}
}

func TestBadFractionCount(t *testing.T) {
	c := prepBench(t, "halftone")
	_, err := gdp.PartitionData(c.Mod, c.Prof, 2, gdp.Options{MemFractions: []float64{1}})
	if err == nil {
		t.Error("accepted wrong fraction count")
	}
}

// memBytesPerCluster sums c's profiled object bytes per cluster under dm.
func memBytesPerCluster(c *Compiled, dm gdp.DataMap, k int) []int64 {
	out := make([]int64, k)
	for id, cl := range dm {
		out[cl] += objectBytes(c, id)
	}
	return out
}
