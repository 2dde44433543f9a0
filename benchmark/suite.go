package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"mcpart/internal/bench"
	"mcpart/internal/check"
	"mcpart/internal/eval"
	"mcpart/internal/machine"
	"mcpart/internal/obs"
	"mcpart/internal/rhop"
)

// suiteLatencies are the move latencies of Figures 7, 8a and 8b.
var suiteLatencies = []int{1, 5, 10}

// suiteResult is one suite-matrix unit: the compiled program and its scheme
// matrix at each of suiteLatencies.
type suiteResult struct {
	c   *eval.Compiled
	brs [3]*eval.BenchResult
}

// suiteMatrix is the paper's main experiment, one program at a time: the
// front end (eval.PrepareFullOpts), then all four Table 1 schemes at the
// three move latencies.
// Every unit starts cold (a fresh compilation with an empty memo cache),
// which is what a compiler user pays per program. The seed only orders the
// 21 programs within each pass.
func suiteMatrix(cfg runConfig) *batch {
	benches := bench.All()
	rng := rand.New(rand.NewSource(cfg.seed))
	first := map[string]*suiteResult{}
	return &batch{
		// Set-up is one cold front-end pass over the suite.
		setupReps: 9,
		setup: func() error {
			for _, b := range benches {
				if _, err := eval.PrepareFullOpts(context.Background(), b.Name, b.Source, eval.DefaultUnroll, true, eval.Options{}); err != nil {
					return err
				}
			}
			return nil
		},
		units: func(int) []unitDef {
			var us []unitDef
			for _, i := range rng.Perm(len(benches)) {
				b := benches[i]
				us = append(us, unitDef{b.Name, func(g *group) (any, error) { return suiteUnit(g, b) }})
			}
			return us
		},
		keep: func(name string, v any) error {
			r := v.(*suiteResult)
			f, ok := first[name]
			if !ok {
				first[name] = r
				return nil
			}
			for i := range r.brs {
				if err := sameMatrix(name, r.brs[i], f.brs[i]); err != nil {
					return fmt.Errorf("pass differs from the first: %w", err)
				}
			}
			return nil
		},
		verify: func() (int64, error) { return verifySuite(benches, first) },
	}
}

func suiteUnit(g *group, b bench.Benchmark) (*suiteResult, error) {
	end := g.span("eval.PrepareFullOpts", mPrepare)
	c, err := eval.PrepareFullOpts(obs.With(context.Background(), g.observer()), b.Name, b.Source, eval.DefaultUnroll, true, eval.Options{})
	end()
	if err != nil {
		return nil, err
	}
	r := &suiteResult{c: c}
	for i, lat := range suiteLatencies {
		end := g.span("eval.RunAllSchemes", mEval)
		br, err := eval.RunAllSchemes(c, machine.Paper2Cluster(lat), eval.Options{Workers: 1, Observer: g.observer()})
		end()
		if err != nil {
			return nil, err
		}
		r.brs[i] = br
	}
	return r, nil
}

// verifySuite checks every kept program against the bundled checksum and
// runs every scheme result through the independent validator. It returns
// the summed cycles of all kept results.
func verifySuite(benches []bench.Benchmark, first map[string]*suiteResult) (int64, error) {
	var errs []error
	var cycles int64
	for _, b := range benches {
		r, ok := first[b.Name]
		if !ok {
			continue
		}
		if r.c.Ret != b.Want {
			errs = append(errs, fmt.Errorf("%s: checksum %d, want %d", b.Name, r.c.Ret, b.Want))
		}
		for i, lat := range suiteLatencies {
			if err := validateMatrix(r.c, machine.Paper2Cluster(lat), r.brs[i]); err != nil {
				errs = append(errs, err)
			}
			cycles += matrixCycles(r.brs[i])
		}
	}
	return cycles, errors.Join(errs...)
}

// validateMatrix runs the four scheme results through check.Validate the
// way eval does under Options.Validate (capacity is GDP's promise only).
func validateMatrix(c *eval.Compiled, cfg *machine.Config, br *eval.BenchResult) error {
	for _, r := range []*eval.Result{br.Unified, br.GDP, br.PMax, br.Naive} {
		err := check.Validate(c.Mod, c.Prof, cfg, check.Result{
			Scheme: string(r.Scheme), DataMap: r.DataMap, Assign: r.Assign, Locks: r.Locks,
			Cycles: r.Cycles, Moves: r.Moves, Groups: r.Groups, CheckCapacity: r.Scheme == eval.SchemeGDP,
		}, check.Options{})
		if err != nil {
			return fmt.Errorf("%s %s on %s: %w", c.Name, r.Scheme, cfg.CacheKey(), err)
		}
	}
	return nil
}

// schemeDigest is an eval.Result with its IR-pointer keys replaced by
// function names and its telemetry left out, so results of two separate
// compilations of one program compare with reflect.DeepEqual.
type schemeDigest struct {
	Scheme       eval.Scheme
	Cycles       int64
	Moves        int64
	DataMap      []int
	Groups       [][]int
	Assign       map[string][]int
	Locks        map[string]rhop.Locks
	DetailedRuns int
}

func digestResult(r *eval.Result) schemeDigest {
	d := schemeDigest{Scheme: r.Scheme, Cycles: r.Cycles, Moves: r.Moves, DataMap: r.DataMap,
		Groups: r.Groups, DetailedRuns: r.DetailedRuns, Assign: map[string][]int{}}
	for f, a := range r.Assign {
		d.Assign[f.Name] = a
	}
	if r.Locks != nil {
		d.Locks = map[string]rhop.Locks{}
		for f, l := range r.Locks {
			d.Locks[f.Name] = l
		}
	}
	return d
}

// digestMatrix digests the four schemes of a BenchResult in Table 1 order.
func digestMatrix(br *eval.BenchResult) [4]schemeDigest {
	return [4]schemeDigest{digestResult(br.Unified), digestResult(br.GDP), digestResult(br.PMax), digestResult(br.Naive)}
}

// matrixCycles sums the cycles of the four schemes.
func matrixCycles(br *eval.BenchResult) int64 {
	return br.Unified.Cycles + br.GDP.Cycles + br.PMax.Cycles + br.Naive.Cycles
}

// sameMatrix compares two BenchResults scheme by scheme.
func sameMatrix(name string, got, want *eval.BenchResult) error {
	if g, w := digestMatrix(got), digestMatrix(want); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("%s: scheme results differ from the reference", name)
	}
	return nil
}
