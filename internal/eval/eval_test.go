package eval

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/machine"
)

func prepBench(t *testing.T, name string) *Compiled {
	t.Helper()
	b, err := bench.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := PrepareOpts(context.Background(), b.Name, b.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Unrolling must preserve the pinned checksum.
	if c.Ret != b.Want {
		t.Fatalf("%s: unrolled checksum %d, want %d", name, c.Ret, b.Want)
	}
	return c
}

// memoless returns a copy of c without a memoization cache: every
// per-function lookup misses, so every result is computed afresh.
func memoless(c *Compiled) *Compiled {
	return &Compiled{Name: c.Name, Mod: c.Mod, Prof: c.Prof, Ret: c.Ret, touched: c.touched}
}

func TestAllSchemesProduceValidResults(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	br, err := RunAllSchemes(c, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{br.Unified, br.GDP, br.PMax, br.Naive} {
		if r.Cycles <= 0 {
			t.Errorf("%s: cycles = %d", r.Scheme, r.Cycles)
		}
		if r.Moves < 0 {
			t.Errorf("%s: moves = %d", r.Scheme, r.Moves)
		}
		for f, asg := range r.Assign {
			if len(asg) != f.NOps {
				t.Errorf("%s: %s assignment incomplete", r.Scheme, f.Name)
			}
		}
	}
	if br.Unified.DataMap != nil {
		t.Error("unified scheme should have no data map")
	}
	if err := br.GDP.DataMap.Validate(c.Mod, 2); err != nil {
		t.Errorf("GDP data map: %v", err)
	}
	if err := br.PMax.DataMap.Validate(c.Mod, 2); err != nil {
		t.Errorf("PMax data map: %v", err)
	}
	if err := br.Naive.DataMap.Validate(c.Mod, 2); err != nil {
		t.Errorf("Naive data map: %v", err)
	}
}

func TestLockedSchemesRespectDataMaps(t *testing.T) {
	c := prepBench(t, "fir")
	cfg := machine.Paper2Cluster(5)
	for _, run := range []func(*Compiled, *machine.Config, Options) (*Result, error){
		RunGDP, RunProfileMax,
	} {
		r, err := run(c, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Every memory op accessing a single object must be assigned to
		// that object's home cluster.
		for _, f := range c.Mod.Funcs {
			asg := r.Assign[f]
			for _, blk := range f.Blocks {
				for _, op := range blk.Ops {
					if !op.Opcode.IsMem() || len(op.MayAccess) != 1 {
						continue
					}
					want := r.DataMap[op.MayAccess[0]]
					if asg[op.ID] != want {
						t.Errorf("%s: %s op %d on cluster %d, object home %d",
							r.Scheme, f.Name, op.ID, asg[op.ID], want)
					}
				}
			}
		}
	}
}

func TestDetailedRunCounts(t *testing.T) {
	// §4.5: ProfileMax runs the detailed partitioner twice; GDP, Naïve and
	// Unified once.
	c := prepBench(t, "halftone")
	cfg := machine.Paper2Cluster(5)
	br, err := RunAllSchemes(c, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if br.GDP.DetailedRuns != 1 || br.Naive.DetailedRuns != 1 || br.Unified.DetailedRuns != 1 {
		t.Errorf("runs: gdp=%d naive=%d unified=%d, want 1 each",
			br.GDP.DetailedRuns, br.Naive.DetailedRuns, br.Unified.DetailedRuns)
	}
	if br.PMax.DetailedRuns != 2 {
		t.Errorf("ProfileMax runs = %d, want 2", br.PMax.DetailedRuns)
	}
}

func TestProfileMaxBalancesMemory(t *testing.T) {
	c := prepBench(t, "rawcaudio") // two big heap buffers force a split
	cfg := machine.Paper2Cluster(5)
	r, err := RunProfileMax(c, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bytes := memBytesPerCluster(c, r.DataMap, 2)
	total := bytes[0] + bytes[1]
	if bytes[0] > total*3/4 || bytes[1] > total*3/4 {
		t.Errorf("ProfileMax left memory badly imbalanced: %v", bytes)
	}
}

// TestProfileMaxMergesOncePerCompiled pins that Profile Max builds the
// module's merge groups once per Compiled: a second run, on another
// machine, reuses them and returns what a fresh Compiled would.
func TestProfileMaxMergesOncePerCompiled(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	before := objectMerges.Load()
	first, err := RunProfileMax(c, machine.Paper2Cluster(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunProfileMax(c, machine.FourCluster(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := objectMerges.Load() - before; n != 1 {
		t.Errorf("two Profile Max runs merged the objects %d times, want 1", n)
	}
	fresh, err := RunProfileMax(memoless(c), machine.FourCluster(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cycles != fresh.Cycles || !reflect.DeepEqual(second.DataMap, fresh.DataMap) {
		t.Errorf("reused groups: %d cycles, map %v; fresh: %d cycles, map %v",
			second.Cycles, second.DataMap, fresh.Cycles, fresh.DataMap)
	}
	if first.Cycles <= 0 {
		t.Errorf("first run: cycles = %d", first.Cycles)
	}
}

func TestNaiveIgnoresBalance(t *testing.T) {
	// viterbi's traceback dominates the bytes; Naive places by access
	// majority only, so heavy imbalance is allowed (and expected when the
	// unified partition colocated everything).
	c := prepBench(t, "viterbi")
	cfg := machine.Paper2Cluster(5)
	if _, err := RunNaive(c, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeMetrics(t *testing.T) {
	u := &Result{Cycles: 1000, Moves: 100}
	s := &Result{Cycles: 1250, Moves: 150}
	if got := RelativePerf(u, s); got != 0.8 {
		t.Errorf("RelativePerf = %v, want 0.8", got)
	}
	if got := CycleIncreasePct(u, s); got != 25 {
		t.Errorf("CycleIncreasePct = %v, want 25", got)
	}
	if got := MoveIncreasePct(u, s); got != 50 {
		t.Errorf("MoveIncreasePct = %v, want 50", got)
	}
	zero := &Result{Cycles: 1000, Moves: 0}
	if got := MoveIncreasePct(zero, s); got != 100 {
		t.Errorf("MoveIncreasePct from zero = %v, want 100", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{4, 1}); got < 1.99 || got > 2.01 {
		t.Errorf("GeoMean(4,1) = %v, want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) should be 0")
	}
}

func TestPaperShapeLat5(t *testing.T) {
	// The headline result (Figures 7/8): at a 5-cycle move latency the
	// partitioned-memory schemes stay near the unified bound, GDP ahead of
	// Profile Max ahead of Naïve on suite average, and everything within a
	// plausible band.
	if testing.Short() {
		t.Skip("full suite evaluation")
	}
	cfg := machine.Paper2Cluster(5)
	var gs, ps, ns []float64
	for _, b := range bench.All() {
		c, err := PrepareOpts(context.Background(), b.Name, b.Source, Options{})
		if err != nil {
			t.Fatal(err)
		}
		br, err := RunAllSchemes(c, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, RelativePerf(br.Unified, br.GDP))
		ps = append(ps, RelativePerf(br.Unified, br.PMax))
		ns = append(ns, RelativePerf(br.Unified, br.Naive))
	}
	g, p, n := GeoMean(gs), GeoMean(ps), GeoMean(ns)
	t.Logf("lat5 means: gdp=%.3f pmax=%.3f naive=%.3f", g, p, n)
	if g < 0.90 {
		t.Errorf("GDP mean %.3f, want >= 0.90 (paper: 0.956)", g)
	}
	if g <= p-0.005 {
		t.Errorf("GDP (%.3f) should be at or above ProfileMax (%.3f) on average", g, p)
	}
	if p <= n {
		t.Errorf("ProfileMax (%.3f) should beat Naive (%.3f) on average", p, n)
	}
}

func TestFormatters(t *testing.T) {
	c := prepBench(t, "halftone")
	cfg := machine.Paper2Cluster(5)
	br, err := RunAllSchemes(c, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	results := []*BenchResult{br}
	if s := FormatTable1(); !strings.Contains(s, "Profile Max") {
		t.Error("Table 1 missing Profile Max row")
	}
	if s := FormatPerfFigure("Figure 8a", results); !strings.Contains(s, "halftone") {
		t.Error("perf figure missing benchmark row")
	}
	if s := FormatFigure10(results); !strings.Contains(s, "halftone") {
		t.Error("figure 10 missing benchmark row")
	}
	if s := FormatCompileTime(results); !strings.Contains(s, "2/") {
		t.Error("compile time table should show ProfileMax's 2 runs")
	}
	f2 := FormatFigure2([]int{5}, map[int][]*BenchResult{5: results})
	if !strings.Contains(f2, "lat=5") {
		t.Error("figure 2 missing latency column")
	}
}
