package check_test

import (
	"errors"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/check"
	"mcpart/internal/eval"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/sched"
)

// TestValidateFuncSumsToValidate: on every bundled program's GDP result, on
// the paper machine and the 2x2 mesh, the per-function entry's recomputed
// cycles and moves sum to the module totals, and Validate, which runs the
// same entry per function, accepts exactly those totals.
func TestValidateFuncSumsToValidate(t *testing.T) {
	for _, cfg := range []*machine.Config{machine.Paper2Cluster(5), machine.Mesh4(5)} {
		for _, b := range bench.All() {
			c := compiled(t, b.Name)
			r, err := eval.RunGDP(c, cfg, eval.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.Name, b.Name, err)
			}
			var cycles, moves int64
			for _, f := range c.Mod.Funcs {
				fc, fm, err := check.ValidateFunc(f, r.Assign[f], r.Locks[f], r.DataMap, cfg, c.Prof)
				if err != nil {
					t.Fatalf("%s %s %s: %v", cfg.Name, b.Name, f.Name, err)
				}
				cycles += fc
				moves += fm
			}
			cr := toCheck(r)
			cr.Cycles, cr.Moves = cycles, moves
			if err := check.Validate(c.Mod, c.Prof, cfg, cr, check.Options{}); err != nil {
				t.Fatalf("%s %s: Validate rejects the per-function sums (%d cycles, %d moves): %v",
					cfg.Name, b.Name, cycles, moves, err)
			}
			cr.Cycles++
			wantClass(t, c, cfg, cr, check.ClassAccount)
		}
	}
}

// funcViolations runs ValidateFunc over every function of r and collects
// the violations.
func funcViolations(t *testing.T, c *eval.Compiled, cfg *machine.Config, r check.Result) []check.Violation {
	t.Helper()
	var vs []check.Violation
	for _, f := range c.Mod.Funcs {
		_, _, err := check.ValidateFunc(f, r.Assign[f], r.Locks[f], r.DataMap, cfg, c.Prof)
		if err == nil {
			continue
		}
		var ce *check.Error
		if !errors.As(err, &ce) {
			t.Fatalf("%s: got %T (%v), want *check.Error", f.Name, err, err)
		}
		vs = append(vs, ce.Violations...)
	}
	return vs
}

func hasClass(vs []check.Violation, class check.Class) bool {
	for _, v := range vs {
		if v.Class == class {
			return true
		}
	}
	return false
}

// corruptSchedules makes Validate and ValidateFunc see the schedules
// mutate damages: in every function, the first block it applies to is
// replaced by the corrupted copy.
func corruptSchedules(t *testing.T, mutate func(*sched.BlockSchedule) *sched.BlockSchedule) {
	t.Cleanup(check.SetMaterializer(func(f *ir.Func, asg []int, lc *sched.LoopCtx, cfg *machine.Config, freq func(*ir.Block) int64) ([]*sched.BlockSchedule, []sched.HoistedMove) {
		schedules, hoisted := sched.MaterializeFunc(f, asg, lc, cfg, freq)
		for id, bs := range schedules {
			if bs == nil {
				continue
			}
			if mut := mutate(bs); mut != nil {
				schedules[id] = mut
				break
			}
		}
		return schedules, hoisted
	}))
}

// TestValidateFuncMutations: every invariant class the per-function entry
// checks fires through it on the corruptions the module-level and
// slot-level mutation tests use.
func TestValidateFuncMutations(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	base := toCheck(r)
	if vs := funcViolations(t, c, cfg, base); len(vs) != 0 {
		t.Fatalf("clean result has violations: %v", vs)
	}
	want := func(t *testing.T, r check.Result, class check.Class) {
		t.Helper()
		if vs := funcViolations(t, c, cfg, r); !hasClass(vs, class) {
			t.Errorf("wanted a %s violation, got %v", class, vs)
		}
	}

	t.Run("assign/out-of-range", func(t *testing.T) {
		cr := base
		cr.Assign = cloneAssign(base.Assign)
		cr.Assign[c.Mod.Funcs[0]][0] = cfg.NumClusters() + 5
		want(t, cr, check.ClassAssign)
	})
	t.Run("assign/missing", func(t *testing.T) {
		cr := base
		cr.Assign = cloneAssign(base.Assign)
		delete(cr.Assign, c.Mod.Funcs[0])
		want(t, cr, check.ClassAssign)
	})
	t.Run("lock/corrupt-home", func(t *testing.T) {
		for obj := range base.DataMap {
			cr := base
			cr.DataMap = append([]int(nil), base.DataMap...)
			cr.DataMap[obj] = 1 - cr.DataMap[obj]
			if hasClass(funcViolations(t, c, cfg, cr), check.ClassLock) {
				return
			}
		}
		t.Error("no home flip produced a lock violation")
	})
	t.Run("lock/off-home", func(t *testing.T) {
		for _, f := range c.Mod.Funcs {
			for id, cl := range base.Locks[f] {
				cr := base
				cr.Assign = cloneAssign(base.Assign)
				cr.Assign[f][id] = 1 - cl
				want(t, cr, check.ClassLock)
				return
			}
		}
		t.Fatal("no locked function found")
	})
	for _, m := range []struct {
		name   string
		class  check.Class
		mutate func(*sched.BlockSchedule) *sched.BlockSchedule
	}{
		{"bus", check.ClassBus, oversubscribeBus},
		{"fu", check.ClassFU, oversubscribeFU(cfg)},
		{"ready", check.ClassReady, retimeEarly},
		{"account", check.ClassAccount, stretchLength},
	} {
		t.Run(m.name, func(t *testing.T) {
			corruptSchedules(t, m.mutate)
			want(t, base, m.class)
		})
	}
}
