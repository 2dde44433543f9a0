package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mcpart/internal/gdp"
	"mcpart/internal/machine"
	"mcpart/internal/parallel"
)

// injectOn returns an Options.Inject hook failing exactly the given
// (scheme, stage) cells.
func injectOn(cells ...[2]string) func(Scheme, string) error {
	return func(s Scheme, stage string) error {
		for _, c := range cells {
			if string(s) == c[0] && stage == c[1] {
				return fmt.Errorf("injected %s/%s failure", c[0], c[1])
			}
		}
		return nil
	}
}

func TestFallbackGDPToProfileMax(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	br, err := RunAllSchemes(c, cfg, Options{
		Fallback: true,
		Inject:   injectOn([2]string{"GDP", "data"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.GDP.Degraded == nil {
		t.Fatal("GDP cell did not degrade")
	}
	if br.GDP.Degraded.From != SchemeGDP {
		t.Errorf("Degraded.From = %s", br.GDP.Degraded.From)
	}
	if !strings.Contains(br.GDP.Degraded.Err.Error(), "injected GDP/data failure") {
		t.Errorf("Degraded.Err = %v", br.GDP.Degraded.Err)
	}
	if br.GDP.Scheme != SchemeProfileMax {
		t.Errorf("fallback scheme = %s, want ProfileMax", br.GDP.Scheme)
	}
	// The substitute's numbers are the real Profile Max numbers.
	if br.GDP.Cycles != br.PMax.Cycles {
		t.Errorf("degraded cycles %d != ProfileMax cycles %d", br.GDP.Cycles, br.PMax.Cycles)
	}
	for _, r := range []*Result{br.Unified, br.PMax, br.Naive} {
		if r.Degraded != nil {
			t.Errorf("%s degraded unexpectedly", r.Scheme)
		}
	}
}

func TestFallbackChainsToNaive(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	br, err := RunAllSchemes(c, cfg, Options{
		Fallback: true,
		Inject: injectOn(
			[2]string{"GDP", "data"},
			[2]string{"ProfileMax", "partition"},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.GDP.Degraded == nil || br.GDP.Scheme != SchemeNaive {
		t.Fatalf("GDP cell = %s (degraded %v), want chained fallback to Naive",
			br.GDP.Scheme, br.GDP.Degraded)
	}
	// The original cause is kept through the chain, not the intermediate's.
	if !strings.Contains(br.GDP.Degraded.Err.Error(), "GDP/data") {
		t.Errorf("Degraded.Err = %v, want the GDP failure", br.GDP.Degraded.Err)
	}
	// The ProfileMax cell itself degrades to Naive too.
	if br.PMax.Degraded == nil || br.PMax.Scheme != SchemeNaive {
		t.Errorf("PMax cell = %s (degraded %v)", br.PMax.Scheme, br.PMax.Degraded)
	}
}

// TestFallbackOnValidationFailure: a result the independent validator
// rejects counts as a scheme failure and triggers degradation.
func TestFallbackOnValidationFailure(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	br, err := RunAllSchemes(c, cfg, Options{
		Validate: true,
		Fallback: true,
		Inject:   injectOn([2]string{"GDP", "validate"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.GDP.Degraded == nil || br.GDP.Scheme != SchemeProfileMax {
		t.Fatalf("GDP cell = %s (degraded %v), want validation-triggered fallback",
			br.GDP.Scheme, br.GDP.Degraded)
	}
}

func TestNoFallbackAttributesCell(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	_, err := RunAllSchemes(c, cfg, Options{
		Inject: injectOn([2]string{"GDP", "data"}),
	})
	if err == nil {
		t.Fatal("want error without Fallback")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error = %T %v, want *CellError", err, err)
	}
	if ce.Bench != "rawcaudio" || ce.Scheme != SchemeGDP || ce.HasMask {
		t.Errorf("CellError = %+v", ce)
	}
	if got := ce.Error(); !strings.Contains(got, "rawcaudio gdp:") {
		t.Errorf("CellError.Error() = %q", got)
	}
}

// panicOn is an Inject hook that panics instead of failing, exercising
// containment rather than error plumbing.
func panicOn(scheme Scheme, stage string) func(Scheme, string) error {
	return func(s Scheme, st string) error {
		if s == scheme && st == stage {
			panic(fmt.Sprintf("synthetic %s/%s panic", scheme, stage))
		}
		return nil
	}
}

func TestPanicContainedIntoFallback(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	br, err := RunAllSchemes(c, cfg, Options{
		Fallback: true,
		Inject:   panicOn(SchemeGDP, "partition"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.GDP.Degraded == nil || br.GDP.Scheme != SchemeProfileMax {
		t.Fatalf("GDP cell = %s (degraded %v), want panic-triggered fallback",
			br.GDP.Scheme, br.GDP.Degraded)
	}
	var pe *parallel.PanicError
	if !errors.As(br.GDP.Degraded.Err, &pe) {
		t.Fatalf("Degraded.Err = %v, want *parallel.PanicError", br.GDP.Degraded.Err)
	}
	if pe.Stage != "GDP" {
		t.Errorf("PanicError.Stage = %q", pe.Stage)
	}
}

func TestPanicContainedWithoutFallback(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	_, err := RunAllSchemes(c, cfg, Options{
		Inject: panicOn(SchemeGDP, "sched"),
	})
	if err == nil {
		t.Fatal("want error")
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want to unwrap to *parallel.PanicError", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Scheme != SchemeGDP {
		t.Fatalf("error = %v, want GDP cell attribution", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}

// TestFallbackExhaustedReturnsCause: when every scheme in the chain fails,
// the caller gets the original scheme's error, not the last fallback's.
func TestFallbackExhaustedReturnsCause(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	_, err := RunAllSchemes(c, cfg, Options{
		Fallback: true,
		Inject: injectOn(
			[2]string{"GDP", "data"},
			[2]string{"ProfileMax", "partition"},
			[2]string{"Naive", "partition"},
		),
	})
	if err == nil {
		t.Fatal("want error when the whole chain fails")
	}
	if !strings.Contains(err.Error(), "GDP/data") {
		t.Errorf("error = %v, want the original GDP cause", err)
	}
}

func TestMatrixCancellation(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	brs, err := RunMatrixCtx(ctx, []*Compiled{c}, cfg, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if brs != nil {
		t.Error("partial results returned after cancellation")
	}
}

// TestCancellationNeverDegrades: a canceled run must not be mistaken for a
// scheme failure and silently handed to a fallback scheme.
func TestCancellationNeverDegrades(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfg := machine.Paper2Cluster(5)
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Fallback: true}
	// Cancel from inside the first pipeline stage: the cell is mid-flight,
	// exactly when a naive fallback loop would retry.
	opts.Inject = func(s Scheme, stage string) error {
		if s == SchemeGDP && stage == "data" {
			cancel()
			return fmt.Errorf("failing after cancel")
		}
		return nil
	}
	_, err := RunSchemeCtx(ctx, c, cfg, SchemeGDP, opts)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "failing after cancel") {
		t.Errorf("error = %v, want original cause (no fallback result)", err)
	}
}

func TestExhaustiveCancellation(t *testing.T) {
	c := prepBench(t, "fir")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExhaustiveCtx(ctx, c, machine.Paper2Cluster(5), Options{}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestPrepareCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PrepareAllCtx(ctx, []BenchSpec{{Name: "x", Src: "func main() int { return 0; }"}}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestExhaustiveCellAttribution: a failure deep in the mask sweep names the
// benchmark and an exact mask, at every pipeline stage the sweep consults,
// and that mask reproduces the failure through RunWithDataMap.
func TestExhaustiveCellAttribution(t *testing.T) {
	c := prepBench(t, "fir")
	cfg := machine.Paper2Cluster(5)
	for _, stage := range []string{"sched", "partition", "validate"} {
		opts := Options{Validate: stage == "validate"}
		opts.Inject = func(s Scheme, st string) error {
			if s == SchemeFixed && st == stage {
				return fmt.Errorf("injected sweep failure")
			}
			return nil
		}
		_, err := Exhaustive(c, cfg, opts, 0)
		if err == nil {
			t.Fatalf("%s: want error", stage)
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error = %T %v, want *CellError", stage, err, err)
		}
		if !ce.HasMask || ce.Scheme != SchemeFixed || ce.Bench != "fir" {
			t.Errorf("%s: CellError = %+v", stage, ce)
		}
		if !strings.Contains(ce.Error(), "mask") {
			t.Errorf("%s: CellError.Error() = %q", stage, ce.Error())
		}
		n := len(c.Mod.Objects)
		if ce.Mask >= 1<<uint(n) {
			t.Fatalf("%s: mask %#x outside the %d-object mapping space", stage, ce.Mask, n)
		}
		dm := make(gdp.DataMap, n)
		for i := range dm {
			dm[i] = int(ce.Mask >> uint(i) & 1)
		}
		if _, err := RunWithDataMap(c, cfg, dm, opts); err == nil || !strings.Contains(err.Error(), "injected sweep failure") {
			t.Errorf("%s: mask %#x through RunWithDataMap: error = %v, want the injected failure", stage, ce.Mask, err)
		}
	}
}
