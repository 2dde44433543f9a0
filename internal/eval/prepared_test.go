package eval

import (
	"reflect"
	"testing"

	"mcpart/internal/machine"
	"mcpart/internal/obs"
)

// sharingMachines is the sequence one Compiled is run through: the paper's
// bus at its three move latencies (one cluster count, so the min-cut memo
// is shared), then a heterogeneous 2-cluster machine and three 4- and
// 8-cluster topologies.
func sharingMachines() []*machine.Config {
	return []*machine.Config{
		machine.Paper2Cluster(1), machine.Paper2Cluster(5), machine.Paper2Cluster(10),
		machine.Heterogeneous2(5), machine.Mesh4(5), machine.Ring8(5), machine.NUMA4(5),
	}
}

// TestPreparedSharedAcrossMachines pins the exactness of the per-Compiled
// RHOP state (rhop.Prepared: region structure plus the min-cut memo): one
// Compiled run through every machine of sharingMachines in turn, at -j1
// and at -j8, returns results identical in every deterministic field to a
// fresh Compiled per machine. A sweep on two 2-cluster machines rides
// along, so a partitioner reused across lock signatures is covered too.
func TestPreparedSharedAcrossMachines(t *testing.T) {
	for _, name := range []string{"fir", "halftone", "rawcaudio"} {
		want := map[string]*BenchResult{}
		for _, cfg := range sharingMachines() {
			br, err := RunAllSchemes(prepBench(t, name), cfg, Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s %s fresh: %v", name, cfg.Name, err)
			}
			want[cfg.Name] = br
		}
		for _, workers := range []int{1, parallelProbe} {
			c := prepBench(t, name)
			reg := obs.NewRegistry()
			for _, cfg := range sharingMachines() {
				got, err := RunAllSchemes(c, cfg, Options{Workers: workers, Observer: obs.New(reg, nil, nil)})
				if err != nil {
					t.Fatalf("%s %s -j%d shared: %v", name, cfg.Name, workers, err)
				}
				if !reflect.DeepEqual(flatAll(want[cfg.Name]), flatAll(got)) {
					t.Errorf("%s %s -j%d: shared Compiled differs from a fresh one", name, cfg.Name, workers)
				}
			}
			if !c.HoldsPrepared() {
				t.Errorf("%s -j%d: scheme runs left no prepared state to share", name, workers)
			}
			if n := reg.Snapshot().Value("gdp_data_hits"); n <= 0 {
				t.Errorf("%s -j%d: gdp_data_hits = %d, want the later machines to reuse the data partition", name, workers, n)
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, cfg := range []*machine.Config{machine.Paper2Cluster(5), machine.Heterogeneous2(5)} {
		want, err := Exhaustive(prepBench(t, "halftone"), cfg, Options{Workers: 1}, 14)
		if err != nil {
			t.Fatal(err)
		}
		shared := prepBench(t, "halftone")
		for _, lat := range []int{1, 10} {
			if _, err := RunAllSchemes(shared, machine.Paper2Cluster(lat), Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		got, err := Exhaustive(shared, cfg, Options{Workers: parallelProbe}, 14)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("halftone %s: sweep on a shared Compiled differs from a fresh one", cfg.Name)
		}
	}
}

// TestShrinkMemoReleasesPrepared pins the release point: ShrinkMemo drops
// the shared RHOP state and the GDP data-partition memo, and the next runs
// rebuild them with identical results.
func TestShrinkMemoReleasesPrepared(t *testing.T) {
	c := prepBench(t, "fir")
	cfg := machine.Paper2Cluster(5)
	before, err := RunAllSchemes(c, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// gdpHits runs GDP alone and reports whether its data partition came
	// from the memo; the result must match the first matrix's.
	gdpHits := func(when string) int64 {
		t.Helper()
		reg := obs.NewRegistry()
		r, err := RunGDP(c, cfg, Options{Workers: 1, Observer: obs.New(reg, nil, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flatResult(before.GDP), flatResult(r)) {
			t.Errorf("%s: GDP result differs from the first run", when)
		}
		return reg.Snapshot().Value("gdp_data_hits")
	}
	if gdpHits("before ShrinkMemo") != 1 {
		t.Fatal("a repeated GDP run did not reuse the data partition")
	}
	if !c.HoldsPrepared() {
		t.Fatal("no prepared state after a scheme run")
	}
	c.ShrinkMemo(0)
	if c.HoldsPrepared() {
		t.Fatal("ShrinkMemo(0) kept the prepared state")
	}
	after, err := RunAllSchemes(c, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	diffMatrices(t, "after ShrinkMemo", []*BenchResult{before}, []*BenchResult{after})

	c.ShrinkMemo(0)
	if gdpHits("first run after ShrinkMemo") != 0 {
		t.Error("ShrinkMemo(0) kept the data-partition memo")
	}
	if gdpHits("second run after ShrinkMemo") != 1 {
		t.Error("the rebuilt data-partition memo was not reused")
	}
}
