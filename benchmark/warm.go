package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"

	"mcpart/internal/bench"
	"mcpart/internal/eval"
	"mcpart/internal/interp"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/obs"
	"mcpart/internal/progen"
	"mcpart/internal/store"
)

// profileSteps is eval.Options' default profiling step budget, given to
// the reference interpreter.
const profileSteps = 10_000_000

// warmProgen is how many never-seen generated programs each warm-restart
// pass compiles cold, next to the 21 bundled ones it serves warm.
const warmProgen = 7

// A generated program's cost grows with its size: progen's programs take
// from under a millisecond to over a hundred (CPU time on the reference
// runner). warm-restart keeps those of warmMinSource to warmMaxSource
// bytes of source, about two in five, which take 9 to 36 ms (5th to 95th
// percentile), so that a run's time depends less on how many very large or
// very small programs its seed drew.
const warmMinSource, warmMaxSource = 1200, 2000

// warmCheckedPasses bounds the reference checks of generated programs to
// the first passes' ones: each check compiles and evaluates the program
// again without a cache, which over a whole run would take longer than
// the run.
const warmCheckedPasses = 4

// warmResult is one warm-restart unit, reduced to comparable values so the
// results of every pass can be kept: main's checksum, the scheme matrix at
// 5-cycle moves and, for a Figure 9 program, the sweep.
type warmResult struct {
	Ret    int64
	Matrix [4]schemeDigest
	Cycles int64
	Ex     *eval.ExhaustiveResult
}

// warmRestart is a compiler restarted on a persistent artifact store. Set-up
// fills a store with the suite's scheme matrices and the Figure 9 sweeps.
// Every pass copies that log into a fresh directory (a new process finding
// yesterday's cache), reopens it, serves the 21 bundled programs from it
// (reads) and compiles warmProgen new generated programs through it
// (writes), then flushes. The seed orders the units and generates the
// programs, within a band of sizes (warmSource).
func warmRestart(cfg runConfig, work string) *batch {
	benches := bench.All()
	rng := rand.New(rand.NewSource(cfg.seed))
	first := map[string]*warmResult{}
	progens := map[string]string{} // name -> source of the checked generated units
	var log []byte                 // the filled artifact log
	dir := filepath.Join(work, "pass")
	setups := 0
	return &batch{
		setupReps: 5,
		setup: func() error {
			setups++
			d := filepath.Join(work, fmt.Sprintf("setup-%d", setups))
			defer os.RemoveAll(d)
			for _, b := range trim(cfg, benches) {
				if _, err := warmUnit(nil, d, b.Name, b.Source, b.Exhaustive); err != nil {
					return err
				}
			}
			if err := store.DropShared(d); err != nil {
				return err
			}
			var err error
			log, err = os.ReadFile(filepath.Join(d, store.LogName))
			return err
		},
		units: func(n int) []unitDef {
			type prog struct {
				name, src  string
				exhaustive bool
			}
			var ps []prog
			for _, b := range benches {
				ps = append(ps, prog{b.Name, b.Source, b.Exhaustive})
			}
			for i := 0; i < warmProgen; i++ {
				name, src := warmSource(rng)
				if n < warmCheckedPasses {
					progens[name] = src
				}
				ps = append(ps, prog{name, src, false})
			}
			var us []unitDef
			for _, i := range rng.Perm(len(ps)) {
				p := ps[i]
				us = append(us, unitDef{p.name, func(g *group) (any, error) { return warmUnit(g, dir, p.name, p.src, p.exhaustive) }})
			}
			return us
		},
		begin: func(g *group) error {
			end := g.span("restore artifact log", mHarness)
			err := os.MkdirAll(dir, 0o755)
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, store.LogName), log, 0o644)
			}
			end()
			if err != nil {
				return err
			}
			defer g.span("store.OpenShared", mStoreOpen)()
			_, err = store.OpenShared(dir, store.Options{})
			return err
		},
		finish: func(g *group) error {
			end := g.span("store.FlushShared", mStoreFlush)
			err := store.FlushShared(dir)
			end()
			if err != nil {
				return err
			}
			st, _ := store.SharedStats(dir)
			g.count("store.hits", int64(st.Hits))
			g.count("store.writes", int64(st.Writes))
			g.count("store.log_bytes", st.LogBytes)
			// The process exits: drop the handle and the directory.
			defer g.span("restart", mHarness)()
			if err := store.DropShared(dir); err != nil {
				return err
			}
			return os.RemoveAll(dir)
		},
		keep: func(name string, v any) error {
			r := v.(*warmResult)
			if _, err := bench.Get(name); err != nil && progens[name] == "" {
				return nil // a generated program past the checked passes
			}
			f, ok := first[name]
			if !ok {
				first[name] = r
				return nil
			}
			if !reflect.DeepEqual(r, f) {
				return errors.New("pass differs from the first")
			}
			return nil
		},
		verify: func() (int64, error) { return verifyWarm(benches, progens, first) },
	}
}

// warmSource generates the next program of the seeded stream whose source
// is warmMinSource to warmMaxSource bytes long, and returns its name and
// source.
func warmSource(rng *rand.Rand) (name, src string) {
	for {
		s := rng.Int63()
		if src := progen.Generate(s, progen.Options{}); len(src) >= warmMinSource && len(src) <= warmMaxSource {
			return fmt.Sprintf("progen-%d", s), src
		}
	}
}

// warmUnit compiles one program through the artifact store in dir (none
// when dir is empty), runs the four schemes at 5-cycle moves and, for a
// Figure 9 program, the sweep.
func warmUnit(g *group, dir, name, src string, exhaustive bool) (*warmResult, error) {
	opts := eval.Options{Workers: 1, CacheDir: dir, Observer: g.observer()}
	cfg := machine.Paper2Cluster(5)
	end := g.span("eval.PrepareOpts", mPrepare)
	c, err := eval.PrepareOpts(obs.With(context.Background(), g.observer()), name, src, opts)
	end()
	if err != nil {
		return nil, err
	}
	end = g.span("eval.RunAllSchemes", mEval)
	br, err := eval.RunAllSchemes(c, cfg, opts)
	end()
	if err != nil {
		return nil, err
	}
	r := &warmResult{Ret: c.Ret, Matrix: digestMatrix(br), Cycles: matrixCycles(br)}
	if exhaustive {
		end = g.span("eval.Exhaustive", mSweep)
		r.Ex, err = eval.Exhaustive(c, cfg, opts, 0)
		end()
	}
	return r, err
}

// verifyWarm compares every kept result with a run without any cache,
// checks bundled checksums against bench.Want and generated programs'
// checksums against the tree-walking interpreter. It returns the summed
// cycles of the bundled programs' results.
func verifyWarm(benches []bench.Benchmark, progens map[string]string, first map[string]*warmResult) (int64, error) {
	var errs []error
	var cycles int64
	noCache := func(name, src string, exhaustive bool) *warmResult {
		r, ok := first[name]
		if !ok {
			return nil
		}
		ref, err := warmUnit(nil, "", name, src, exhaustive)
		if err != nil {
			errs = append(errs, err)
		} else if !reflect.DeepEqual(r, ref) {
			errs = append(errs, fmt.Errorf("%s: cached results differ from a run without cache", name))
		}
		return r
	}
	for _, b := range benches {
		if r := noCache(b.Name, b.Source, b.Exhaustive); r != nil {
			if r.Ret != b.Want {
				errs = append(errs, fmt.Errorf("%s: checksum %d, want %d", b.Name, r.Ret, b.Want))
			}
			cycles += r.Cycles
			if r.Ex != nil {
				cycles += r.Ex.Best
			}
		}
	}
	for name, src := range progens {
		if r := noCache(name, src, false); r != nil {
			if err := interpChecksum(name, src, r.Ret); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return cycles, errors.Join(errs...)
}

// interpChecksum runs the program unoptimized and not unrolled on the
// tree-walking interpreter, an engine independent of the bytecode VM that
// profiled it, and compares main's return value with want.
func interpChecksum(name, src string, want int64) error {
	mod, err := mclang.Compile(src, name)
	if err != nil {
		return err
	}
	v, err := interp.New(mod, interp.Options{MaxSteps: profileSteps}).RunMain()
	if err != nil {
		return fmt.Errorf("%s: interpreter: %w", name, err)
	}
	if v.I != want {
		return fmt.Errorf("%s: checksum %d, interpreter says %d", name, want, v.I)
	}
	return nil
}
