package eval

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"mcpart/internal/machine"
	"mcpart/internal/parallel"
	"mcpart/internal/progen"
)

// TestOptionDefaults pins the documented defaults behind the repository's
// option convention (see internal/defaults): a zero or negative knob
// selects the default, any positive value wins. Workers follows the same
// sentinel through parallel.Workers.
func TestOptionDefaults(t *testing.T) {
	var zero Options
	if got := zero.maxSteps(); got != 10_000_000 {
		t.Errorf("zero MaxSteps -> %d, want 10_000_000", got)
	}
	if got := (Options{MaxSteps: -5}).maxSteps(); got != 10_000_000 {
		t.Errorf("negative MaxSteps -> %d, want 10_000_000", got)
	}
	if got := (Options{MaxSteps: 500}).maxSteps(); got != 500 {
		t.Errorf("set MaxSteps -> %d, want 500", got)
	}
	if got := parallel.Workers(zero.Workers); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero Workers -> %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := parallel.Workers(3); got != 3 {
		t.Errorf("Workers 3 -> %d, want 3", got)
	}
}

// TestMaxObjectsDefaults pins the maxObjects<=0 routing through
// internal/defaults: the exhaustive sweep falls back to DefaultMaxObjects
// (14) and the branch-and-bound search to DefaultBestMaxObjects (24).
// Both checks use generated programs whose object counts sit above each
// cap, so the guard fires before any search work happens.
func TestMaxObjectsDefaults(t *testing.T) {
	cfg := machine.Paper2Cluster(5)

	// 19 objects: over the sweep's default cap, under the search's.
	src := progen.Generate(2, progen.Options{MaxGlobals: 18})
	c, err := PrepareOpts(context.Background(), "progen19", src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Mod.Objects); n != 19 {
		t.Fatalf("generated program has %d objects, want 19", n)
	}
	_, err = Exhaustive(c, cfg, Options{}, 0)
	if err == nil || !strings.Contains(err.Error(), "capped at 14") {
		t.Errorf("Exhaustive default cap: got %v, want capped-at-14 error", err)
	}

	// 30 objects: over the search's default cap too.
	src = progen.Generate(3, progen.Options{MaxGlobals: 30})
	c, err = PrepareOpts(context.Background(), "progen30", src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Mod.Objects); n != 30 {
		t.Fatalf("generated program has %d objects, want 30", n)
	}
	if _, err := BestMapping(c, cfg, Options{}, 0); err == nil || !strings.Contains(err.Error(), "capped at 24") {
		t.Errorf("BestMapping default cap: got %v, want capped-at-24 error", err)
	}

	// Explicit caps override the defaults in both directions.
	if _, err := Exhaustive(c, cfg, Options{}, 29); err == nil {
		t.Error("Exhaustive accepted an explicit cap below the object count")
	}
	if _, err := BestMapping(c, cfg, Options{}, 29); err == nil {
		t.Error("BestMapping accepted an explicit cap below the object count")
	}
}
