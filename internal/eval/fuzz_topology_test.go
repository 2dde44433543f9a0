package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcpart/internal/machine"
	"mcpart/internal/progen"
)

// fuzzMachine derives a valid random machine from the fuzz inputs: cluster
// count in {1,2,4,8} (the recursive bisection partitioner needs a power of
// two), one of the four topologies (random symmetric latency matrices for
// TopologyMatrix, a random column count for the mesh), a base latency in
// [1,10], random bandwidth within the physical cap, and — on odd memByte —
// asymmetric per-cluster scratchpad capacities. The derivation is total:
// every input maps to a config that machine.Validate accepts, which the
// harness asserts before using it.
func fuzzMachine(seed int64, machineByte, latByte, memByte uint8) *machine.Config {
	rng := rand.New(rand.NewSource(seed ^ int64(machineByte)<<8 ^ int64(latByte)<<16 ^ int64(memByte)<<24))
	k := []int{1, 2, 4, 8}[int(machineByte)%4]
	lat := 1 + int(latByte)%10
	tmpl := machine.FourCluster(lat).Clusters[0]
	cfg := &machine.Config{
		Name:          fmt.Sprintf("fuzz-%dc-lat%d", k, lat),
		Clusters:      make([]machine.Cluster, k),
		MoveLatency:   lat,
		MoveBandwidth: 1 + rng.Intn(2), // <= 2 <= TotalUnits(FUInt) for every k
	}
	for i := range cfg.Clusters {
		cfg.Clusters[i] = tmpl
	}
	switch (int(machineByte) / 4) % 4 {
	case 1:
		if k >= 2 {
			cfg.Topology = machine.TopologyRing
		}
	case 2:
		cfg.Topology = machine.TopologyMesh
		cfg.MeshCols = 1 + rng.Intn(k)
	case 3:
		cfg.Topology = machine.TopologyMatrix
		m := make([][]int, k)
		for a := range m {
			m[a] = make([]int, k)
		}
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				l := lat * (1 + rng.Intn(4))
				m[a][b], m[b][a] = l, l
			}
		}
		cfg.LatencyMatrix = m
	}
	if memByte%2 == 1 && k > 1 {
		const unit = 64 << 10
		for i := range cfg.Clusters {
			cfg.Clusters[i].MemBytes = int64(1+rng.Intn(4)) * unit
		}
	}
	return cfg
}

// TestFuzzMachinesValidate checks every machine shape fuzzMachine draws
// (cluster count, topology, memory layout) passes machine.Validate, so the
// fuzz targets never start from a configuration the facade would reject.
func TestFuzzMachinesValidate(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for mb := 0; mb < 16; mb++ {
			for memByte := uint8(0); memByte < 2; memByte++ {
				if cfg := fuzzMachine(seed, uint8(mb), uint8(seed), memByte); cfg.Validate() != nil {
					t.Errorf("fuzzMachine(%d, %d, %d, %d): %v", seed, mb, seed, memByte, cfg.Validate())
				}
			}
		}
	}
}

// FuzzTopology property-tests the topology-generalized pipeline: progen
// programs × random valid machines. Oracles, in order: the derived config
// passes machine.Validate; all four schemes run with the independent
// validator green (the validator re-derives per-pair move costs itself,
// so this differentially checks the scheduler's topology charging); the
// base-k Gray-code delta sweep equals the full per-mask engine point for
// point; and branch and bound lands exactly on the sweep's optimum.
// Programs whose k^n mapping space is too large for the differential
// enumeration skip the sweep oracles but keep the validator one.
func FuzzTopology(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(0))      // 1-cluster bus
	f.Add(int64(7), uint8(1), uint8(0), uint8(1))      // 2-cluster bus, asymmetric memory
	f.Add(int64(42), uint8(6), uint8(4), uint8(0))     // 4-cluster ring
	f.Add(int64(1337), uint8(10), uint8(9), uint8(1))  // 4-cluster mesh, asymmetric memory
	f.Add(int64(99991), uint8(15), uint8(2), uint8(0)) // 8-cluster random matrix
	f.Add(int64(2), uint8(14), uint8(4), uint8(1))     // 4-cluster random matrix, asymmetric memory
	f.Fuzz(func(t *testing.T, seed int64, machineByte, latByte, memByte uint8) {
		cfg := fuzzMachine(seed, machineByte, latByte, memByte)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzMachine built an invalid config: %v", err)
		}
		k := cfg.NumClusters()
		src := progen.Generate(seed, progen.Options{MaxGlobals: 7})
		c, err := PrepareOpts(context.Background(), "fuzz", src, Options{})
		if err != nil {
			t.Fatalf("seed %d: pipeline rejected a progen program: %v\n%s", seed, err, src)
		}
		br, err := RunAllSchemes(c, cfg, Options{Validate: true, Workers: 1})
		if err != nil {
			t.Fatalf("seed %d machine %s: validated scheme run failed: %v\n%s", seed, cfg.Name, err, src)
		}
		for _, r := range []*Result{br.Unified, br.GDP, br.PMax, br.Naive} {
			if r.Cycles <= 0 {
				t.Fatalf("seed %d machine %s: %s produced %d cycles", seed, cfg.Name, r.Scheme, r.Cycles)
			}
		}
		// Differential sweep oracles only where k^n stays enumerable.
		n := len(c.Mod.Objects)
		points := 1
		for i := 0; i < n; i++ {
			points *= k
			if points > 1<<10 {
				t.Skipf("seed %d: %d^%d mapping points, too large for differential enumeration", seed, k, n)
			}
		}
		delta, err := Exhaustive(c, cfg, Options{Workers: 2}, 10)
		if err != nil {
			t.Fatalf("seed %d machine %s: delta sweep failed: %v\n%s", seed, cfg.Name, err, src)
		}
		full, err := exhaustivePerMask(c, cfg, Options{Workers: 2}, 10)
		if err != nil {
			t.Fatalf("seed %d machine %s: full engine failed: %v\n%s", seed, cfg.Name, err, src)
		}
		if !reflect.DeepEqual(delta, full) {
			t.Fatalf("seed %d machine %s: delta sweep differs from full engine\n%s", seed, cfg.Name, src)
		}
		best, err := BestMapping(c, cfg, Options{}, 10)
		if err != nil {
			t.Fatalf("seed %d machine %s: best-mapping search failed: %v\n%s", seed, cfg.Name, err, src)
		}
		if best.Cycles != delta.Best {
			t.Fatalf("seed %d machine %s: branch and bound found %d cycles, sweep best is %d\n%s",
				seed, cfg.Name, best.Cycles, delta.Best, src)
		}
		if p := delta.Find(best.Mask); p == nil || p.Cycles != best.Cycles {
			t.Fatalf("seed %d machine %s: mask %#x does not achieve the reported optimum\n%s",
				seed, cfg.Name, best.Mask, src)
		}
	})
}
