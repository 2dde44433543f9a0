package eval

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/interp"
	"mcpart/internal/mclang"
	"mcpart/internal/opt"
	"mcpart/internal/pointsto"
)

// TestPrepareEngineEquivalence pins Prepare's profile to the tree-walking
// interpreter, the profiler's test oracle: the same front end run by hand
// and executed by interp.New must give the same checksum and a
// DeepEqual-identical Profile as Prepare's bytecode VM run.
func TestPrepareEngineEquivalence(t *testing.T) {
	bm, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	vm, err := PrepareOpts(context.Background(), bm.Name, bm.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := mclang.CompileUnrolled(bm.Source, bm.Name, DefaultUnroll)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(mod)
	pointsto.Analyze(mod)
	in := interp.New(mod, interp.Options{MaxSteps: Options{}.maxSteps()})
	v, err := in.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if vm.Ret != v.I {
		t.Fatalf("checksum mismatch: vm %d, tree %d", vm.Ret, v.I)
	}
	if vm.Ret != bm.Want {
		t.Fatalf("checksum %d, want %d", vm.Ret, bm.Want)
	}
	if !reflect.DeepEqual(normProfile(vm.Prof), normProfile(in.Profile())) {
		t.Fatal("profiles diverge between engines")
	}
}

// normProfile projects a Profile onto engine-independent keys (function
// names plus dense block/op/object IDs instead of pointers): the two
// Prepare calls compile separate modules, so pointer-keyed maps can never
// be compared directly.
func normProfile(p *interp.Profile) map[string]int64 {
	out := map[string]int64{"steps": p.Steps}
	for b, n := range p.BlockFreq {
		out[fmt.Sprintf("bf/%s/b%d", b.Func.Name, b.ID)] = n
	}
	for op, m := range p.OpObj {
		for objID, n := range m {
			out[fmt.Sprintf("op/%s/%d/%d", op.Block.Func.Name, op.ID, objID)] = n
		}
	}
	for objID, n := range p.ObjBytes {
		out[fmt.Sprintf("bytes/%d", objID)] = n
	}
	for objID, n := range p.ObjAccess {
		out[fmt.Sprintf("acc/%d", objID)] = n
	}
	return out
}

// TestPrepareMaxStepsHonored pins that Options.MaxSteps reaches the
// profiler: a cap far below the benchmark's step count must fail Prepare
// with a typed step-budget error.
func TestPrepareMaxStepsHonored(t *testing.T) {
	bm, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	_, err = PrepareOpts(context.Background(), bm.Name, bm.Source, Options{MaxSteps: 100})
	var be *interp.BudgetError
	if !errors.As(err, &be) || be.Resource != "step" {
		t.Errorf("want step BudgetError, got %v", err)
	}
}

// TestPrepareMaxBytesHonored pins that Options.MaxBytes reaches the
// profiler: a heap cap below the benchmark's footprint must fail Prepare
// with a typed byte-budget error, and a generous cap must not change the
// result.
func TestPrepareMaxBytesHonored(t *testing.T) {
	bm, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	_, err = PrepareOpts(context.Background(), bm.Name, bm.Source, Options{MaxBytes: 8})
	var be *interp.BudgetError
	if !errors.As(err, &be) || be.Resource != "byte" {
		t.Errorf("want byte BudgetError, got %v", err)
	}
	c, err := PrepareOpts(context.Background(), bm.Name, bm.Source, Options{MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ret != bm.Want {
		t.Fatalf("checksum under generous byte budget %d, want %d", c.Ret, bm.Want)
	}
}
