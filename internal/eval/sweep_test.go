package eval

import (
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/machine"
)

// TestDeltaSweepMatchesFull is the delta engine's acceptance property: on
// every benchmark in the suite, across move-latency presets and worker
// counts, the Gray-code delta sweep returns an ExhaustiveResult
// reflect.DeepEqual to the full per-mask engine's (exhaustivePerMask). The
// delta run goes first on a shared Compiled, so the full engine is served
// from the same memo entries — any disagreement is therefore in the sweep
// machinery itself (table indexing, Gray stepping, delta seeding,
// mirroring), not in per-function values.
func TestDeltaSweepMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite exhaustive comparison is slow")
	}
	for _, b := range bench.All() {
		c := prepBench(t, b.Name)
		for _, lat := range []int{1, 5, 10} {
			cfg := machine.Paper2Cluster(lat)
			var first *ExhaustiveResult
			for _, j := range []int{1, 8} {
				delta, err := Exhaustive(c, cfg, Options{Workers: j}, 16)
				if err != nil {
					t.Fatalf("%s lat%d j%d delta: %v", b.Name, lat, j, err)
				}
				full, err := exhaustivePerMask(c, cfg, Options{Workers: j}, 16)
				if err != nil {
					t.Fatalf("%s lat%d j%d full: %v", b.Name, lat, j, err)
				}
				if !reflect.DeepEqual(delta, full) {
					t.Fatalf("%s lat%d j%d: delta sweep differs from full engine", b.Name, lat, j)
				}
				if first == nil {
					first = delta
				} else if !reflect.DeepEqual(first, delta) {
					t.Fatalf("%s lat%d: results differ across worker counts", b.Name, lat)
				}
			}
		}
	}
}

// TestDeltaSweepMatchesFullNoMemo repeats the comparison without a memo
// cache on a representative benchmark: each engine runs on its own
// memo-less copy of the program, so shared cache entries cannot paper over
// a divergence between the two pipelines' computations.
func TestDeltaSweepMatchesFullNoMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search is slow")
	}
	c := prepBench(t, "fir")
	cfg := machine.Paper2Cluster(5)
	delta, err := Exhaustive(memoless(c), cfg, Options{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	full, err := exhaustivePerMask(memoless(c), cfg, Options{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(delta, full) {
		t.Fatal("memo-less delta sweep differs from full engine")
	}
}

// TestDeltaSweepAsymmetricMachine pins the uncanonicalized Gray enumeration
// (no mirroring) against the full engine on a machine that fails the
// symmetry predicate.
func TestDeltaSweepAsymmetricMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search is slow")
	}
	c := prepBench(t, "fir")
	cfg := machine.Heterogeneous2(5)
	delta, err := Exhaustive(c, cfg, Options{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	full, err := exhaustivePerMask(c, cfg, Options{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(delta, full) {
		t.Fatal("asymmetric delta sweep differs from full engine")
	}
}
