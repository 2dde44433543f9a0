package eval

import (
	"context"
	"reflect"
	"testing"

	"mcpart/internal/machine"
)

// kwayMachines are the k>2, mostly asymmetric machines the generalized
// sweep must get right: uniform 4-cluster bus (canonicalization disabled
// but costs uniform), ring and mesh (non-uniform structural distances),
// NUMA (explicit matrix + asymmetric memories), and the mesh spelled as a
// matrix.
func kwayMachines() []*machine.Config {
	return []*machine.Config{
		machine.FourCluster(5),
		machine.RingFour(5),
		machine.Mesh4(5),
		machine.NUMA4(5),
		machine.AsMatrix(machine.Mesh4(5)),
	}
}

// TestDeltaSweepMatchesFullKWay is the base-k Gray-code engine's
// acceptance property: on 4-cluster machines of every topology the delta
// sweep must return an ExhaustiveResult reflect.DeepEqual to the full
// per-mask engine's, at both worker counts.
func TestDeltaSweepMatchesFullKWay(t *testing.T) {
	if testing.Short() {
		t.Skip("k-way exhaustive comparison is slow")
	}
	c := prepBench(t, "halftone")
	for _, cfg := range kwayMachines() {
		var first *ExhaustiveResult
		for _, j := range []int{1, parallelProbe} {
			delta, err := Exhaustive(c, cfg, Options{Workers: j}, 14)
			if err != nil {
				t.Fatalf("%s j%d delta: %v", cfg.Name, j, err)
			}
			full, err := exhaustivePerMask(c, cfg, Options{Workers: j}, 14)
			if err != nil {
				t.Fatalf("%s j%d full: %v", cfg.Name, j, err)
			}
			if !reflect.DeepEqual(delta, full) {
				t.Fatalf("%s j%d: delta sweep differs from full engine", cfg.Name, j)
			}
			if first == nil {
				first = delta
			} else if !reflect.DeepEqual(first, delta) {
				t.Fatalf("%s: results differ across worker counts", cfg.Name)
			}
		}
	}
}

// TestBestMappingKWayOptimal pins branch and bound on k>2 asymmetric
// machines: the search must return the exhaustive sweep's exact optimum,
// achieved by its own mask.
func TestBestMappingKWayOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("k-way exhaustive verification is slow")
	}
	c := prepBench(t, "halftone")
	for _, cfg := range kwayMachines() {
		ex, err := Exhaustive(c, cfg, Options{}, 14)
		if err != nil {
			t.Fatalf("%s exhaustive: %v", cfg.Name, err)
		}
		best, err := BestMapping(c, cfg, Options{}, 14)
		if err != nil {
			t.Fatalf("%s best: %v", cfg.Name, err)
		}
		if best.Cycles != ex.Best {
			t.Fatalf("%s: BestMapping cycles %d, exhaustive best %d", cfg.Name, best.Cycles, ex.Best)
		}
		p := ex.Find(best.Mask)
		if p == nil || p.Cycles != best.Cycles {
			t.Fatalf("%s: mask %#x does not achieve the reported optimum", cfg.Name, best.Mask)
		}
		if best.NodesVisited <= 0 {
			t.Fatalf("%s: no DFS nodes reported", cfg.Name)
		}
	}
}

// TestKWayValidatorGreen runs the full scheme suite with the independent
// validator enabled on every k-way topology preset — the validator
// re-derives per-pair move costs on its own, so this pins the scheduler's
// topology-aware charging against a second implementation.
func TestKWayValidatorGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("validated k-way matrix is slow")
	}
	cs := []*Compiled{prepBench(t, "halftone"), prepBench(t, "fir")}
	for _, cfg := range []*machine.Config{
		machine.Mesh4(5), machine.Mesh8(5), machine.Ring8(5), machine.NUMA4(5), machine.EightCluster(5),
	} {
		if _, err := RunMatrixCtx(context.Background(), cs, cfg, Options{Workers: parallelProbe, Validate: true}); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

// TestKWayMoveCycleMonotonicity: stretching a topology's distances can
// never reduce the GDP cycle count on the same benchmark — mesh8 at
// latency 10 must not beat mesh8 at latency 5, and a ring (diameter 4)
// must not beat the uniform bus at the same base latency on the identical
// cluster count.
func TestKWayMoveCycleMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-machine comparison is slow")
	}
	c := prepBench(t, "fir")
	cheap, err := RunGDP(c, machine.Mesh8(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dear, err := RunGDP(c, machine.Mesh8(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dear.Cycles < cheap.Cycles {
		t.Errorf("mesh8 lat10 (%d cycles) beats lat5 (%d)", dear.Cycles, cheap.Cycles)
	}
	bus, err := RunGDP(c, machine.EightCluster(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := RunGDP(c, machine.Ring8(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Cycles < bus.Cycles {
		t.Errorf("ring8 (%d cycles) beats the uniform bus (%d) at equal base latency", ring.Cycles, bus.Cycles)
	}
}
