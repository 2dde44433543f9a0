package eval

import (
	"context"
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/machine"
)

// prepSuite compiles the whole benchmark suite once per test.
func prepSuite(t *testing.T) []*Compiled {
	t.Helper()
	var specs []BenchSpec
	for _, b := range bench.All() {
		specs = append(specs, BenchSpec{Name: b.Name, Src: b.Source})
	}
	cs, err := PrepareAllOpts(context.Background(), specs, parallelProbe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// diffMatrices requires two four-scheme matrices to agree on every
// deterministic result field, benchmark by benchmark.
func diffMatrices(t *testing.T, label string, want, got []*BenchResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: result count %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Name != g.Name {
			t.Fatalf("%s: benchmark order differs at %d: %s vs %s", label, i, w.Name, g.Name)
		}
		for _, q := range []struct {
			scheme   string
			ser, par *Result
		}{
			{"unified", w.Unified, g.Unified},
			{"gdp", w.GDP, g.GDP},
			{"pmax", w.PMax, g.PMax},
			{"naive", w.Naive, g.Naive},
		} {
			if !reflect.DeepEqual(detFields(q.ser), detFields(q.par)) {
				t.Errorf("%s: %s %s diverges",
					label, w.Name, q.scheme)
			}
		}
	}
}

// conformance runs the full four-scheme suite on a structural topology and
// on its explicit-matrix expansion, at -j1 and -j8, and requires the four
// runs to be identical in every deterministic field. This is the
// differential contract of machine.AsMatrix: the matrix is the same
// machine spelled through a different MoveLat code path, so every
// consumer — gdp's partition graph, rhop's cost estimator, the scheduler's
// per-pair move charging, the validator — must be unable to tell them
// apart.
func conformance(t *testing.T, cs []*Compiled, structural *machine.Config) {
	t.Helper()
	asMatrix := machine.AsMatrix(structural)
	ref, err := RunMatrix(cs, structural, Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s -j1: %v", structural.Name, err)
	}
	for _, probe := range []struct {
		label   string
		cfg     *machine.Config
		workers int
	}{
		{structural.Name + " -j8", structural, parallelProbe},
		{asMatrix.Name + " -j1", asMatrix, 1},
		{asMatrix.Name + " -j8", asMatrix, parallelProbe},
	} {
		got, err := RunMatrix(cs, probe.cfg, Options{Workers: probe.workers})
		if err != nil {
			t.Fatalf("%s: %v", probe.label, err)
		}
		diffMatrices(t, probe.label, ref, got)
	}
}

// TestBusAsMatrixConformance: the paper's bus at each of its three
// latency presets vs the uniform explicit matrix, whole suite, both
// worker counts.
func TestBusAsMatrixConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential is slow")
	}
	cs := prepSuite(t)
	for _, lat := range []int{1, 5, 10} {
		conformance(t, cs, machine.Paper2Cluster(lat))
	}
}

// TestRingAsMatrixConformance: the nearest-neighbor ring (non-uniform
// pairwise costs, so the matrix expansion actually has distinct entries)
// vs its expansion, whole suite, both worker counts.
func TestRingAsMatrixConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential is slow")
	}
	cs := prepSuite(t)
	for _, lat := range []int{1, 5, 10} {
		conformance(t, cs, machine.RingFour(lat))
	}
	conformance(t, cs, machine.Ring8(5))
}

// TestMeshAsMatrixConformance extends the differential to the mesh
// presets at the paper's middle latency.
func TestMeshAsMatrixConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential is slow")
	}
	cs := prepSuite(t)
	conformance(t, cs, machine.Mesh4(5))
	conformance(t, cs, machine.Mesh8(5))
}

// TestFigure9AsMatrixByteIdentical pins the exhaustive sweep: the rendered
// Figure 9 output (every mapping point, cycles, imbalance, scheme marks)
// must be byte-identical between the structural bus and its matrix
// spelling on every exhaustive-eligible benchmark — and likewise for a
// 4-cluster ring sweep on a small benchmark where 4^n fits the point cap.
func TestFigure9AsMatrixByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search is slow")
	}
	for _, b := range bench.All() {
		if !b.Exhaustive {
			continue
		}
		c := prepBench(t, b.Name)
		for _, lat := range []int{1, 5, 10} {
			bus := machine.Paper2Cluster(lat)
			ref, err := Exhaustive(c, bus, Options{}, 14)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Exhaustive(c, machine.AsMatrix(bus), Options{Workers: parallelProbe}, 14)
			if err != nil {
				t.Fatal(err)
			}
			if FormatFigure9(b.Name, ref) != FormatFigure9(b.Name, got) {
				t.Errorf("%s lat %d: Figure 9 output differs between bus and matrix spellings", b.Name, lat)
			}
		}
	}
	// A topology with genuinely non-uniform pairwise costs: ring4 on the
	// smallest benchmark (4^n must fit the 2^14 point cap).
	c := prepBench(t, "halftone")
	ring := machine.RingFour(5)
	ref, err := Exhaustive(c, ring, Options{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Exhaustive(c, machine.AsMatrix(ring), Options{Workers: parallelProbe}, 14)
	if err != nil {
		t.Fatal(err)
	}
	if FormatFigure9("halftone", ref) != FormatFigure9("halftone", got) {
		t.Error("ring4 Figure 9 output differs between structural and matrix spellings")
	}
}

// TestValidatorConformanceAcrossSpellings runs the independent schedule
// validator over the whole suite on both spellings of the ring: the
// validator re-derives per-hop move costs itself, so a green verdict on
// the structural topology must stay green on the matrix expansion (and
// the results must still be identical).
func TestValidatorConformanceAcrossSpellings(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite validation is slow")
	}
	cs := prepSuite(t)
	ring := machine.RingFour(5)
	ref, err := RunMatrix(cs, ring, Options{Workers: parallelProbe, Validate: true})
	if err != nil {
		t.Fatalf("validator rejected the structural ring: %v", err)
	}
	got, err := RunMatrix(cs, machine.AsMatrix(ring), Options{Workers: parallelProbe, Validate: true})
	if err != nil {
		t.Fatalf("validator rejected the ring-as-matrix: %v", err)
	}
	diffMatrices(t, "validated ring spellings", ref, got)
}
