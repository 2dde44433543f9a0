package rhop

import (
	"testing"

	"mcpart/internal/machine"
	"mcpart/internal/obs"
)

// TestObserverZeroAllocOverheadPartitionFunc is the partitioner half of
// the observability zero-overhead guard: a nil Options.Obs must add zero
// allocations per function partitioning (Prepare, NewPartitioner, then
// Partition) to the hot loop — the region/move/cost-eval tallies are plain
// scratch integers, and the single flush block is skipped entirely. With an
// observer attached the only extra work is seven counter adds per
// function, which allocate nothing once the counters exist, so all
// configurations must allocate identically.
func TestObserverZeroAllocOverheadPartitionFunc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	mod, prof := compileAndProfile(t, wideSrc)
	mcfg := machine.Paper2Cluster(5)
	f := mod.Func("main")

	run := func(opts Options) func() {
		return func() {
			if _, err := Prepare(f, prof, nil).NewPartitioner(mcfg, opts).Partition(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	nilObs := run(Options{})
	nilObs() // warm the partitioner pools
	base := testing.AllocsPerRun(20, nilObs)

	o := obs.New(obs.NewRegistry(), nil, nil)
	withObs := run(Options{Obs: o})
	withObs() // create the counters
	attached := testing.AllocsPerRun(20, withObs)
	if attached != base {
		t.Errorf("observer changed Partition allocs: %.1f/op vs %.1f/op baseline", attached, base)
	}

	again := testing.AllocsPerRun(20, nilObs)
	if again != base {
		t.Errorf("nil-observer allocs unstable: %.1f/op vs %.1f/op baseline", again, base)
	}
}

// TestObservedPartitionCountersMatch pins the rhop counter semantics:
// one rhop_functions increment per Partition call, and region/eval
// tallies that are positive for a function with real work.
func TestObservedPartitionCountersMatch(t *testing.T) {
	mod, prof := compileAndProfile(t, wideSrc)
	mcfg := machine.Paper2Cluster(5)
	f := mod.Func("main")
	o := obs.New(obs.NewRegistry(), nil, nil)
	const calls = 3
	for i := 0; i < calls; i++ {
		if _, err := Prepare(f, prof, nil).NewPartitioner(mcfg, Options{Obs: o}).Partition(nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Registry().Snapshot()
	if got := snap.Value("rhop_functions"); got != calls {
		t.Errorf("rhop_functions = %d, want %d", got, calls)
	}
	if got := snap.Value("rhop_regions"); got < calls {
		t.Errorf("rhop_regions = %d, want >= %d", got, calls)
	}
	if got := snap.Value("rhop_cost_evals"); got <= 0 {
		t.Errorf("rhop_cost_evals = %d, want > 0", got)
	}
}
