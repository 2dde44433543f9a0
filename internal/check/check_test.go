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

// compiledCache shares prepared benchmarks across the tests in this file.
var compiledCache = map[string]*eval.Compiled{}

func compiled(t *testing.T, name string) *eval.Compiled {
	t.Helper()
	if c, ok := compiledCache[name]; ok {
		return c
	}
	b, err := bench.Get(name)
	if err != nil {
		t.Fatalf("bench.Get(%s): %v", name, err)
	}
	c, err := eval.Prepare(b.Name, b.Source)
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	compiledCache[name] = c
	return c
}

// toCheck converts an eval result into the validator's input form.
func toCheck(r *eval.Result) check.Result {
	return check.Result{
		Scheme:        string(r.Scheme),
		DataMap:       r.DataMap,
		Assign:        r.Assign,
		Locks:         r.Locks,
		Cycles:        r.Cycles,
		Moves:         r.Moves,
		CheckCapacity: r.Scheme == eval.SchemeGDP,
	}
}

func cloneAssign(in map[*ir.Func][]int) map[*ir.Func][]int {
	out := make(map[*ir.Func][]int, len(in))
	for f, asg := range in {
		out[f] = append([]int(nil), asg...)
	}
	return out
}

// gdpResult evaluates GDP on rawcaudio with the paper machine — the
// mutation tests' shared clean baseline.
func gdpResult(t *testing.T, cfg *machine.Config) (*eval.Compiled, *eval.Result) {
	t.Helper()
	c := compiled(t, "rawcaudio")
	r, err := eval.RunGDP(c, cfg, eval.Options{})
	if err != nil {
		t.Fatalf("RunGDP: %v", err)
	}
	return c, r
}

func TestValidateCleanResults(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c := compiled(t, "rawcaudio")
	for _, run := range []struct {
		name string
		fn   func(*eval.Compiled, *machine.Config, eval.Options) (*eval.Result, error)
	}{
		{"unified", eval.RunUnified},
		{"gdp", eval.RunGDP},
		{"pmax", eval.RunProfileMax},
		{"naive", eval.RunNaive},
	} {
		r, err := run.fn(c, cfg, eval.Options{})
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if err := check.Validate(c.Mod, c.Prof, cfg, toCheck(r), check.Options{}); err != nil {
			t.Errorf("%s: clean result flagged: %v", run.name, err)
		}
	}
}

// wantClass validates a deliberately corrupted result and asserts the
// expected invariant class fired.
func wantClass(t *testing.T, c *eval.Compiled, cfg *machine.Config, r check.Result, class check.Class) {
	t.Helper()
	err := check.Validate(c.Mod, c.Prof, cfg, r, check.Options{})
	if err == nil {
		t.Fatalf("corrupted result passed validation (wanted %s violation)", class)
	}
	var ce *check.Error
	if !errors.As(err, &ce) {
		t.Fatalf("got %T (%v), want *check.Error", err, err)
	}
	if !ce.Has(class) {
		t.Errorf("wanted a %s violation, got: %v", class, err)
	}
}

func TestMutationHomeOutOfRange(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	cr := toCheck(r)
	cr.DataMap = append([]int(nil), cr.DataMap...)
	cr.DataMap[0] = cfg.NumClusters() + 3
	wantClass(t, c, cfg, cr, check.ClassHome)
}

func TestMutationHomeCoverage(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	cr := toCheck(r)
	cr.DataMap = cr.DataMap[:len(cr.DataMap)-1]
	wantClass(t, c, cfg, cr, check.ClassHome)
}

// TestMutationCorruptHome flips one object's home without recomputing
// locks: memory ops locked to the stale home are then executing off their
// object's home cluster (§3.4).
func TestMutationCorruptHome(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	base := toCheck(r)
	for obj := range base.DataMap {
		dm := append([]int(nil), base.DataMap...)
		dm[obj] = 1 - dm[obj]
		trial := base
		trial.DataMap = dm
		trial.CheckCapacity = false // isolate the lock class from balance fallout
		if err := check.Validate(c.Mod, c.Prof, cfg, trial, check.Options{}); err != nil {
			var ce *check.Error
			if errors.As(err, &ce) && ce.Has(check.ClassLock) {
				return // caught
			}
		}
	}
	t.Fatal("no home flip produced a lock violation")
}

func TestMutationAssignOffHome(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	cr := toCheck(r)
	for _, f := range c.Mod.Funcs {
		locks := cr.Locks[f]
		if len(locks) == 0 {
			continue
		}
		assign := cloneAssign(cr.Assign)
		for id, cl := range locks {
			assign[f][id] = 1 - cl
			break
		}
		cr.Assign = assign
		wantClass(t, c, cfg, cr, check.ClassLock)
		return
	}
	t.Fatal("no locked function found")
}

func TestMutationAssignOutOfRange(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	cr := toCheck(r)
	f := c.Mod.Funcs[0]
	assign := cloneAssign(cr.Assign)
	assign[f][0] = cfg.NumClusters() + 5
	cr.Assign = assign
	wantClass(t, c, cfg, cr, check.ClassAssign)
}

func TestMutationMissingAssignment(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	cr := toCheck(r)
	assign := cloneAssign(cr.Assign)
	delete(assign, c.Mod.Funcs[0])
	cr.Assign = assign
	wantClass(t, c, cfg, cr, check.ClassAssign)
}

func TestMutationCycleAccounting(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	cr := toCheck(r)
	cr.Cycles++
	wantClass(t, c, cfg, cr, check.ClassAccount)
}

func TestMutationMoveAccounting(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	cr := toCheck(r)
	cr.Moves--
	wantClass(t, c, cfg, cr, check.ClassAccount)
}

func TestMutationCapacityOverflow(t *testing.T) {
	base := machine.Paper2Cluster(5)
	// Asymmetric capacities: cluster 0's tolerated share plus the
	// single-unit slack is still far below the whole data set, so homing
	// everything there must trip the capacity invariant.
	cfg, err := machine.WithMemCapacities(base, 1<<10, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := compiled(t, "rawcaudio")
	// Cram every object onto cluster 0 through the supported evaluation
	// path so locks and assignment stay self-consistent; only the capacity
	// promise is then broken.
	dm := make([]int, len(c.Mod.Objects))
	r, err := eval.RunWithDataMap(c, cfg, dm, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cr := toCheck(r)
	cr.CheckCapacity = true
	wantClass(t, c, cfg, cr, check.ClassCapacity)
}

// materializedBlock finds a block schedule of rawcaudio's GDP partition
// satisfying pick, for the slot-level mutation tests.
func materializedBlock(t *testing.T, pick func(*sched.BlockSchedule) bool) (*ir.Block, *sched.BlockSchedule, []int, *machine.Config) {
	t.Helper()
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	for _, f := range c.Mod.Funcs {
		asg := r.Assign[f]
		schedules, _ := sched.MaterializeFunc(f, asg, sched.NewLoopCtx(f), cfg, c.Prof.Freq)
		for _, b := range f.Blocks {
			if bs := schedules[b.ID]; bs != nil && pick(bs) {
				return b, bs, asg, cfg
			}
		}
	}
	t.Skip("no block matching the mutation's precondition")
	return nil, nil, nil, nil
}

func hasMove(bs *sched.BlockSchedule) bool {
	for _, s := range bs.Slots {
		if s.IsMove {
			return true
		}
	}
	return false
}

// The slot-level corruptions below are shared by the VerifyBlock mutation
// tests here and the ValidateFunc ones (func_test.go). Each returns a
// corrupted copy of bs, or nil when bs lacks the corruption's
// precondition.

// oversubscribeBus injects a second move into a cycle that already carries
// one on a bandwidth-1 bus.
func oversubscribeBus(bs *sched.BlockSchedule) *sched.BlockSchedule {
	if !hasMove(bs) {
		return nil
	}
	mut := *bs
	mut.Slots = append([]sched.Slot(nil), bs.Slots...)
	var src *sched.Slot
	for i := range mut.Slots {
		if mut.Slots[i].IsMove {
			src = &mut.Slots[i]
			break
		}
	}
	// Same cycle, other cluster: the per-cluster FU budget stays legal, so
	// only the shared bus is oversubscribed.
	extra := *src
	extra.Cluster = 1 - extra.Cluster
	extra.Preds = nil
	mut.Slots = append(mut.Slots, extra)
	return &mut
}

// oversubscribeFU stacks more issues onto one (cycle, cluster, kind) cell
// than cfg has units.
func oversubscribeFU(cfg *machine.Config) func(*sched.BlockSchedule) *sched.BlockSchedule {
	return func(bs *sched.BlockSchedule) *sched.BlockSchedule {
		if len(bs.Slots) == 0 {
			return nil
		}
		mut := *bs
		mut.Slots = append([]sched.Slot(nil), bs.Slots...)
		seed := mut.Slots[0]
		units := cfg.Units(seed.Cluster, seed.Kind)
		for i := 0; i <= units; i++ {
			extra := seed
			extra.Op = nil
			extra.IsMove = true // slots past the block's ops must be moves
			extra.Preds = nil
			mut.Slots = append(mut.Slots, extra)
		}
		return &mut
	}
}

// retimeEarly issues the first op whose operand arrives after cycle 0 at
// cycle 0, before that operand is ready.
func retimeEarly(bs *sched.BlockSchedule) *sched.BlockSchedule {
	for si := range bs.Block.Ops {
		for _, p := range bs.Slots[si].Preds {
			if bs.Slots[p.From].Cycle+p.Lat > 0 {
				mut := *bs
				mut.Slots = append([]sched.Slot(nil), bs.Slots...)
				mut.Slots[si].Cycle = 0
				return &mut
			}
		}
	}
	return nil
}

// stretchLength tampers with the reported block length.
func stretchLength(bs *sched.BlockSchedule) *sched.BlockSchedule {
	if len(bs.Slots) == 0 {
		return nil
	}
	mut := *bs
	mut.Length += 5
	return &mut
}

// verifyMutated corrupts the first block of rawcaudio's GDP partition that
// mutate applies to and verifies it.
func verifyMutated(t *testing.T, mutate func(*sched.BlockSchedule) *sched.BlockSchedule) *check.Recorder {
	t.Helper()
	b, bs, asg, cfg := materializedBlock(t, func(bs *sched.BlockSchedule) bool { return mutate(bs) != nil })
	rec := check.NewRecorder()
	check.VerifyBlock(rec, b, mutate(bs), asg, cfg)
	return rec
}

func TestMutationBusOversubscribed(t *testing.T) {
	if rec := verifyMutated(t, oversubscribeBus); !rec.Has(check.ClassBus) {
		t.Errorf("oversubscribed bus not caught: %v", rec.Violations())
	}
}

func TestMutationFUOversubscribed(t *testing.T) {
	if rec := verifyMutated(t, oversubscribeFU(machine.Paper2Cluster(5))); !rec.Has(check.ClassFU) {
		t.Errorf("oversubscribed FU not caught: %v", rec.Violations())
	}
}

func TestMutationRetimedMove(t *testing.T) {
	if rec := verifyMutated(t, retimeEarly); !rec.Has(check.ClassReady) {
		t.Errorf("early issue not caught: %v", rec.Violations())
	}
}

// TestMutationDroppedMove removes a move the schedule depends on; the
// dangling dependence (or the broken accounting) must surface.
func TestMutationDroppedMove(t *testing.T) {
	b, bs, asg, cfg := materializedBlock(t, func(bs *sched.BlockSchedule) bool {
		if len(bs.Slots) == 0 {
			return false
		}
		last := len(bs.Slots) - 1
		if !bs.Slots[last].IsMove {
			return false
		}
		for _, s := range bs.Slots {
			for _, p := range s.Preds {
				if p.From == last {
					return true
				}
			}
		}
		return false
	})
	mut := *bs
	mut.Slots = append([]sched.Slot(nil), bs.Slots[:len(bs.Slots)-1]...)
	rec := check.NewRecorder()
	check.VerifyBlock(rec, b, &mut, asg, cfg)
	if !rec.Has(check.ClassReady) && !rec.Has(check.ClassAccount) {
		t.Errorf("dropped move not caught: %v", rec.Violations())
	}
}

func TestMutationBlockLength(t *testing.T) {
	if rec := verifyMutated(t, stretchLength); !rec.Has(check.ClassAccount) {
		t.Errorf("tampered length not caught: %v", rec.Violations())
	}
}

func TestRecorderCap(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	c, r := gdpResult(t, cfg)
	cr := toCheck(r)
	assign := cloneAssign(cr.Assign)
	for _, f := range c.Mod.Funcs {
		for i := range assign[f] {
			assign[f][i] = 99 // every op out of range
		}
	}
	cr.Assign = assign
	err := check.Validate(c.Mod, c.Prof, cfg, cr, check.Options{})
	var ce *check.Error
	if !errors.As(err, &ce) {
		t.Fatalf("got %v", err)
	}
	// Every op is out of range, far more violations than the validator's
	// cap of 32: collection must stop exactly at the cap.
	if len(ce.Violations) != 32 {
		t.Errorf("cap of 32 not honored: %d violations", len(ce.Violations))
	}
}
