package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"mcpart/internal/bench"
	"mcpart/internal/eval"
	"mcpart/internal/machine"
	"mcpart/internal/obs"
)

// dseTarget is one (program, machine) pair of the design-space sweep.
type dseTarget struct {
	bench, machine string
}

// dseTargets are the four Figure 9 programs on the paper's machine and the
// heterogeneous one, plus the two smallest on the 4-cluster mesh.
// rawcaudio/rawdaudio on mesh4 are left out: one unit takes 3-21 s.
func dseTargets() []dseTarget {
	var ts []dseTarget
	for _, b := range bench.All() {
		if !b.Exhaustive {
			continue
		}
		ts = append(ts, dseTarget{b.Name, "paper2"}, dseTarget{b.Name, "hetero2"})
	}
	return append(ts, dseTarget{"fir", "mesh4"}, dseTarget{"halftone", "mesh4"})
}

// dseSearches are the three searches run on each target: the Gray-code
// sweep, the validated sweep (which still takes the per-mask engine) and
// the branch-and-bound best mapping.
var dseSearches = []string{"sweep", "validated", "best"}

// dseSweep is the data-mapping design-space exploration: each unit is a
// cold compilation plus one search. The seed orders the units.
func dseSweep(cfg runConfig) *batch {
	targets := dseTargets()
	rng := rand.New(rand.NewSource(cfg.seed))
	first := map[string]any{}
	return &batch{
		// Set-up warms every search engine once on the cheapest target.
		setupReps: 9,
		setup: func() error {
			for _, s := range dseSearches {
				if _, err := dseUnit(nil, dseTarget{"fir", "paper2"}, s); err != nil {
					return err
				}
			}
			return nil
		},
		units: func(int) []unitDef {
			var us []unitDef
			for _, i := range rng.Perm(len(targets) * len(dseSearches)) {
				t, s := targets[i/len(dseSearches)], dseSearches[i%len(dseSearches)]
				us = append(us, unitDef{t.bench + "/" + t.machine + "/" + s, func(g *group) (any, error) { return dseUnit(g, t, s) }})
			}
			return us
		},
		keep: func(name string, v any) error {
			f, ok := first[name]
			if !ok {
				first[name] = v
				return nil
			}
			if !reflect.DeepEqual(f, v) {
				return errors.New("pass differs from the first")
			}
			return nil
		},
		verify: func() (int64, error) { return verifyDSE(targets, first) },
	}
}

func dseUnit(g *group, t dseTarget, search string) (any, error) {
	b, err := bench.Get(t.bench)
	if err != nil {
		return nil, err
	}
	cfg, err := machine.Preset(t.machine, 5)
	if err != nil {
		return nil, err
	}
	end := g.span("eval.PrepareFullOpts", mPrepare)
	c, err := eval.PrepareFullOpts(obs.With(context.Background(), g.observer()), b.Name, b.Source, eval.DefaultUnroll, true, eval.Options{})
	end()
	if err != nil {
		return nil, err
	}
	opts := eval.Options{Workers: 1, Observer: g.observer()}
	switch search {
	case "sweep":
		defer g.span("eval.Exhaustive", mSweep)()
		return eval.Exhaustive(c, cfg, opts, 0)
	case "validated":
		opts.Validate = true
		defer g.span("eval.Exhaustive validate", mVSweep)()
		return eval.Exhaustive(c, cfg, opts, 0)
	default:
		defer g.span("eval.BestMapping", mBest)()
		return eval.BestMapping(c, cfg, opts, 0)
	}
}

// verifyDSE checks, per target, that the sweep, the validated sweep and the
// branch-and-bound search agree: the same points with and without
// validation, and Exhaustive.Best == BestMapping.Cycles. It returns the
// summed optimal cycles over the targets.
func verifyDSE(targets []dseTarget, first map[string]any) (int64, error) {
	var errs []error
	var cycles int64
	for _, t := range targets {
		key := t.bench + "/" + t.machine + "/"
		sweep, _ := first[key+"sweep"].(*eval.ExhaustiveResult)
		vsweep, _ := first[key+"validated"].(*eval.ExhaustiveResult)
		best, _ := first[key+"best"].(*eval.BestResult)
		if sweep != nil && vsweep != nil && !reflect.DeepEqual(sweep, vsweep) {
			errs = append(errs, fmt.Errorf("%s: validated sweep differs from the sweep", strings.TrimSuffix(key, "/")))
		}
		opt := int64(-1)
		for _, ex := range []*eval.ExhaustiveResult{sweep, vsweep} {
			if ex != nil {
				opt = ex.Best
			}
		}
		if best != nil {
			if opt >= 0 && best.Cycles != opt {
				errs = append(errs, fmt.Errorf("%s: BestMapping %d cycles, Exhaustive best %d", strings.TrimSuffix(key, "/"), best.Cycles, opt))
			}
			opt = best.Cycles
		}
		if opt > 0 {
			cycles += opt
		}
	}
	return cycles, errors.Join(errs...)
}
