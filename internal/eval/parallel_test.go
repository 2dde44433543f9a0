package eval

import (
	"context"
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/machine"
)

// Worker counts the determinism tests compare: the serial reference and a
// heavily oversubscribed pool (more workers than this machine has cores),
// so completion order genuinely scrambles.
const parallelProbe = 8

// TestExhaustiveDeterminismAcrossWorkers pins the tentpole guarantee: the
// exhaustive mapping search returns a byte-identical result no matter how
// many workers evaluate the masks.
func TestExhaustiveDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search is slow")
	}
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	serial, err := Exhaustive(c, cfg, Options{Workers: 1}, 14)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Exhaustive(c, cfg, Options{Workers: parallelProbe}, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("exhaustive search differs between -j 1 and -j %d", parallelProbe)
	}
}

// detFields projects out every deterministic field of a Result; the wall
// time in PartitionTime is the one field allowed to differ across worker
// counts.
func detFields(r *Result) map[string]interface{} {
	return map[string]interface{}{
		"scheme":  r.Scheme,
		"cycles":  r.Cycles,
		"moves":   r.Moves,
		"datamap": r.DataMap,
		"assign":  r.Assign,
		"locks":   r.Locks,
		"runs":    r.DetailedRuns,
	}
}

// matrixFields is flatResult plus the memo hit counts. The counts are the
// same at any worker count when every run starts from a cold Compiled: a
// benchmark's schemes run in order inside one worker.
func matrixFields(r *Result) map[string]any {
	m := flatResult(r)
	m["partHits"] = r.MemoPartitionHits
	m["schedHits"] = r.MemoScheduleHits
	return m
}

// TestMatrixDeterminismAcrossWorkers runs the full four-scheme matrix over
// two freshly prepared benchmarks at -j 1 and -j 8 and requires deep
// equality of every deterministic result field, memo hit counts included.
func TestMatrixDeterminismAcrossWorkers(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	run := func(workers int) []*BenchResult {
		cs := []*Compiled{prepBench(t, "rawcaudio"), prepBench(t, "halftone")}
		brs, err := RunMatrixCtx(context.Background(), cs, cfg, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return brs
	}
	serial, par := run(1), run(parallelProbe)
	if len(serial) != len(par) {
		t.Fatalf("result count differs: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if s.Name != p.Name {
			t.Fatalf("benchmark order differs at %d: %s vs %s", i, s.Name, p.Name)
		}
		pairs := []struct {
			scheme   string
			ser, par *Result
		}{
			{"unified", s.Unified, p.Unified},
			{"gdp", s.GDP, p.GDP},
			{"pmax", s.PMax, p.PMax},
			{"naive", s.Naive, p.Naive},
		}
		for _, q := range pairs {
			if !reflect.DeepEqual(matrixFields(q.ser), matrixFields(q.par)) {
				t.Errorf("%s %s differs between -j 1 and -j %d",
					s.Name, q.scheme, parallelProbe)
			}
		}
	}
}

// TestRunAllSchemesMatchesMatrix pins that the single-benchmark wrapper is
// just row 0 of the matrix.
func TestRunAllSchemesMatchesMatrix(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	one, err := RunAllSchemes(c, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := RunMatrixCtx(context.Background(), []*Compiled{c}, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(detFields(one.GDP), detFields(matrix[0].GDP)) {
		t.Error("RunAllSchemes GDP result differs from RunMatrixCtx")
	}
}

// TestPrepareAllMatchesPrepare pins that the concurrent front end produces
// the same compiled artifacts as serial Prepare calls (checksums and
// module shapes included).
func TestPrepareAllMatchesPrepare(t *testing.T) {
	names := []string{"rawcaudio", "halftone"}
	var specs []BenchSpec
	for _, name := range names {
		b, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, BenchSpec{Name: b.Name, Src: b.Source})
	}
	cs, err := PrepareAllOpts(context.Background(), specs, parallelProbe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		want := prepBench(t, names[i]) // serial reference, validates checksum
		if c.Name != want.Name || c.Ret != want.Ret {
			t.Errorf("%s: parallel Prepare checksum %d, serial %d", c.Name, c.Ret, want.Ret)
		}
		if len(c.Mod.Funcs) != len(want.Mod.Funcs) || len(c.Mod.Objects) != len(want.Mod.Objects) {
			t.Errorf("%s: module shape differs between parallel and serial Prepare", c.Name)
		}
	}
}
