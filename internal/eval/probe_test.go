package eval

import (
	"context"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/machine"
)

// TestProbe prints the headline numbers for a few benchmarks at each
// latency; run with -v to inspect. It asserts only sanity (all schemes
// produce positive cycle counts).
func TestProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe is informational")
	}
	for _, name := range []string{"rawcaudio", "rawdaudio", "fir", "mpeg2dec", "fsed"} {
		b, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := PrepareOpts(context.Background(), b.Name, b.Source, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, lat := range []int{1, 5, 10} {
			cfg := machine.Paper2Cluster(lat)
			br, err := RunAllSchemes(c, cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-10s lat=%2d unified=%8d gdp=%8d(%.1f%%) pmax=%8d(%.1f%%) naive=%8d(%.1f%%) moves u/g/p/n=%d/%d/%d/%d",
				name, lat, br.Unified.Cycles,
				br.GDP.Cycles, 100*RelativePerf(br.Unified, br.GDP),
				br.PMax.Cycles, 100*RelativePerf(br.Unified, br.PMax),
				br.Naive.Cycles, 100*RelativePerf(br.Unified, br.Naive),
				br.Unified.Moves, br.GDP.Moves, br.PMax.Moves, br.Naive.Moves)
			if br.Unified.Cycles <= 0 || br.GDP.Cycles <= 0 {
				t.Fatal("nonpositive cycles")
			}
		}
	}
}
