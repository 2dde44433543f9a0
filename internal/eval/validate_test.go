package eval

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/check"
	"mcpart/internal/machine"
	"mcpart/internal/obs"
)

// allCompiled prepares every bundled benchmark once per test binary; the
// validation matrix reuses them across machine presets.
var allCompiled = sync.OnceValues(func() ([]*Compiled, error) {
	var specs []BenchSpec
	for _, b := range bench.All() {
		specs = append(specs, BenchSpec{Name: b.Name, Src: b.Source})
	}
	return PrepareAllOpts(context.Background(), specs, 0, Options{})
})

// TestValidateMatrix runs the independent validator over every benchmark x
// scheme x machine preset: the whole pipeline must produce results the
// first-principles re-derivation agrees with. In -short mode the benchmark
// list is trimmed; the presets are not (they are the cheap axis).
func TestValidateMatrix(t *testing.T) {
	cs, err := allCompiled()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		cs = cs[:4]
	}
	capped, err := machine.WithMemCapacities(machine.Paper2Cluster(5), 1<<16, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	presets := []*machine.Config{
		machine.Paper2Cluster(5),
		machine.FourCluster(5),
		machine.RingFour(5),
		machine.Heterogeneous2(5),
		capped,
	}
	for _, cfg := range presets {
		brs, err := RunMatrixCtx(context.Background(), cs, cfg, Options{Validate: true})
		if err != nil {
			var ce *check.Error
			if errors.As(err, &ce) {
				t.Fatalf("%s: validator rejected a pipeline result:\n%v", cfg.Name, ce)
			}
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		for _, br := range brs {
			for _, r := range []*Result{br.Unified, br.GDP, br.PMax, br.Naive} {
				if r == nil || r.Cycles <= 0 {
					t.Errorf("%s %s: missing or empty result", cfg.Name, br.Name)
				}
				if r != nil && r.Degraded != nil {
					t.Errorf("%s %s %s: unexpected degradation: %v",
						cfg.Name, br.Name, r.Scheme, r.Degraded.Err)
				}
			}
		}
	}
}

// TestValidateExhaustive validates every mapping of the Figure 9 sweep on a
// small benchmark: the locked second pass must hold the invariants for
// arbitrary (even terrible) data maps, not just scheme-chosen ones.
func TestValidateExhaustive(t *testing.T) {
	c := prepBench(t, "fir")
	ex, err := Exhaustive(c, machine.Paper2Cluster(5), Options{Validate: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Points) == 0 {
		t.Fatal("no points")
	}
}

// TestValidatedSweepMatchesPerMask is the validated delta sweep's
// differential: it must return an ExhaustiveResult reflect.DeepEqual to
// the per-mask engine validating every mask's whole-module result, and to
// the plain sweep, on symmetric, asymmetric and 4-cluster machines at two
// worker counts.
func TestValidatedSweepMatchesPerMask(t *testing.T) {
	if testing.Short() {
		t.Skip("validated per-mask sweeps are slow")
	}
	for _, name := range []string{"fir", "halftone", "rawcaudio"} {
		c := prepBench(t, name)
		for _, preset := range []string{"paper2", "hetero2", "mesh4"} {
			cfg, err := machine.Preset(preset, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []int{1, 4} {
				plain, err := Exhaustive(c, cfg, Options{Workers: j}, 14)
				if err != nil {
					t.Fatalf("%s %s j%d plain: %v", name, preset, j, err)
				}
				validated, err := Exhaustive(c, cfg, Options{Workers: j, Validate: true}, 14)
				if err != nil {
					t.Fatalf("%s %s j%d validated: %v", name, preset, j, err)
				}
				perMask, err := exhaustivePerMask(c, cfg, Options{Workers: j, Validate: true}, 14)
				if err != nil {
					t.Fatalf("%s %s j%d per-mask: %v", name, preset, j, err)
				}
				if !reflect.DeepEqual(validated, perMask) {
					t.Fatalf("%s %s j%d: validated sweep differs from the validated per-mask engine", name, preset, j)
				}
				if !reflect.DeepEqual(validated, plain) {
					t.Fatalf("%s %s j%d: validated sweep differs from the plain sweep", name, preset, j)
				}
			}
		}
	}
}

// TestExhaustiveNoObjects: a program without data objects has one mapping
// point, which the sweep produces (plain and validated) exactly as the
// per-mask engine does, on a symmetric machine where no object 0 can be
// pinned.
func TestExhaustiveNoObjects(t *testing.T) {
	c, err := PrepareOpts(context.Background(), "noobj", "func main() int { int s = 0; int i; for (i = 0; i < 10; i = i + 1) { s = s + i * 3; } return s; }", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Mod.Objects); n != 0 {
		t.Fatalf("program has %d objects, want 0", n)
	}
	cfg := machine.Paper2Cluster(5)
	want, err := exhaustivePerMask(c, cfg, Options{Validate: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, validate := range []bool{false, true} {
		got, err := Exhaustive(c, cfg, Options{Validate: validate}, 0)
		if err != nil {
			t.Fatalf("validate=%v: %v", validate, err)
		}
		if len(got.Points) != 1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("validate=%v: sweep %+v, per-mask engine %+v", validate, got, want)
		}
	}
}

// TestBestMappingValidates: under Options.Validate the branch-and-bound
// search validates its cost-table entries (eval_validations counts them)
// and honours an injected validator fault, naming a mask that reaches the
// failing entry.
func TestBestMappingValidates(t *testing.T) {
	c := prepBench(t, "fir")
	cfg := machine.Paper2Cluster(5)
	reg := obs.NewRegistry()
	plain, err := BestMapping(c, cfg, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BestMapping(c, cfg, Options{Validate: true, Observer: obs.New(reg, nil, nil)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *plain {
		t.Errorf("validated search %+v, plain %+v", got, plain)
	}
	if n := reg.Snapshot().Value("eval_validations"); n <= 0 {
		t.Errorf("eval_validations = %d, want > 0", n)
	}

	opts := Options{Validate: true}
	opts.Inject = func(s Scheme, stage string) error {
		if s == SchemeFixed && stage == "validate" {
			return errors.New("injected validator failure")
		}
		return nil
	}
	_, err = BestMapping(c, cfg, opts, 0)
	var ce *CellError
	if !errors.As(err, &ce) || !ce.HasMask || !strings.Contains(err.Error(), "injected validator failure") {
		t.Fatalf("error = %v, want a masked CellError carrying the injected fault", err)
	}
}
