// Package eval implements the paper's experimental methodology (§4): the
// four object/computation partitioning schemes of Table 1 — GDP, Profile
// Max, Naïve, and Unified memory — plus the metrics behind every figure:
// relative performance (Figures 7 and 8), cycle increase of data-incognizant
// partitioning (Figure 2), dynamic intercluster move counts (Figure 10),
// the exhaustive data-mapping search (Figure 9), and detailed-partitioner
// run counts and times (§4.5).
package eval

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mcpart/internal/bytecode"
	"mcpart/internal/check"
	"mcpart/internal/defaults"
	"mcpart/internal/gdp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/memo"
	"mcpart/internal/obs"
	"mcpart/internal/opt"
	"mcpart/internal/pointsto"
	"mcpart/internal/profile"
	"mcpart/internal/rhop"
	"mcpart/internal/sched"
	"mcpart/internal/store"
)

// Scheme names a partitioning strategy from Table 1.
type Scheme string

// The schemes of Table 1.
const (
	SchemeUnified    Scheme = "Unified"
	SchemeGDP        Scheme = "GDP"
	SchemeProfileMax Scheme = "ProfileMax"
	SchemeNaive      Scheme = "Naive"
	// SchemeFixed is a caller-supplied data mapping (RunWithDataMap); it
	// appears in CellError attribution for exhaustive-search masks, never
	// in the scheme matrix.
	SchemeFixed Scheme = "Fixed"
)

// Compiled is a benchmark after front end, points-to analysis and
// profiling — the common input to every scheme.
type Compiled struct {
	Name string
	Mod  *ir.Module
	Prof *profile.Profile
	Ret  int64 // main's checksum, for validation

	// memo caches per-function partition, lock, and schedule results
	// across scheme runs (see internal/memo and DESIGN.md §7). The module
	// and profile are immutable after Prepare, so results keyed by the
	// remaining inputs — the function's projected lock signature, the
	// machine, and the partitioner options — are valid for the lifetime
	// of the Compiled. nil (hand-built Compiled values) runs the same code
	// with every lookup missing.
	memo *memo.Cache
	// store is the persistent artifact tier layered under memo when a run
	// names a cache directory (Options.CacheDir); storeOnce makes the
	// attachment first-wins. See store.go and DESIGN.md §12.
	store     *store.Store
	storeOnce sync.Once
	// touched[f] is the sorted union of object IDs in the MayAccess sets
	// of f's memory operations: the only objects whose data-map homes can
	// influence f's locks, and therefore its partition. A function
	// touching t of the module's n objects has at most 2^t distinct lock
	// signatures, which is what collapses the 2^n exhaustive search.
	// Prepare fills it (enableMemo); a hand-built Compiled must too.
	touched map[*ir.Func][]int
	// shared is the shared RHOP state (see prepared).
	shared rhopState
	// dataParts memoizes GDP's data partition per cluster count and
	// partitioning knobs (gdp.DataPartitions), so every machine with the
	// same count and memory shares reuses one partition. Its entries are
	// tens of bytes per object, so only ShrinkMemo drops it.
	dataParts gdp.DataPartitions
}

// rhopState is a Compiled's share of rhop's reusable partitioning state,
// keyed by function name. The min-cut memos (cuts) live until
// ReleasePrepared, since they are small and every later run can hit them,
// whatever its machine. The per-function prepared structure (fns), with
// its per-machine block-schedule caches, is larger, so it is kept only
// while some run holds a lease (see lease) and rebuilt by the next one: a
// caller that keeps many compiled programs around holds their memos, not
// their structure.
type rhopState struct {
	mu     sync.Mutex // guards leases
	leases int
	cuts   memo.Table[*rhop.MinCuts]
	fns    memo.Table[*rhop.Prepared]
}

// prepared returns f's rhop.Prepared, bound to f's shared min-cut memo.
// Callers hold a lease (every top-level entry takes one), so the structure
// is built once and shared until the last lease ends. Every value its
// memos hold is a pure function of its key, so sharing them across runs,
// machines, and worker goroutines leaves results unchanged. The error is
// that of a build this call waited on and that panicked.
func (c *Compiled) prepared(f *ir.Func) (*rhop.Prepared, error) {
	st := &c.shared
	key := []byte(f.Name)
	p, _, err := st.fns.Do(key, func() (*rhop.Prepared, error) {
		cuts, _, err := st.cuts.Do(key, func() (*rhop.MinCuts, error) { return &rhop.MinCuts{}, nil })
		if err != nil {
			return nil, err
		}
		return rhop.Prepare(f, c.Prof, cuts), nil
	})
	return p, err
}

// lease keeps the prepared structure alive across the runs of one
// top-level call (a scheme run or matrix, a sweep, a search) and returns
// the function that ends the lease; the last lease to end drops the
// structure, block-schedule caches included.
func (c *Compiled) lease() (release func()) {
	st := &c.shared
	st.mu.Lock()
	st.leases++
	st.mu.Unlock()
	return func() {
		st.mu.Lock()
		if st.leases--; st.leases == 0 {
			st.fns.Clear()
		}
		st.mu.Unlock()
	}
}

// ReleasePrepared drops the shared RHOP state, min-cut memos included; the
// next run starts it afresh. Runs in flight keep what they hold. Results
// are unaffected.
func (c *Compiled) ReleasePrepared() {
	c.shared.cuts.Clear()
	c.shared.fns.Clear()
}

// HoldsPrepared reports whether any shared RHOP state is held.
func (c *Compiled) HoldsPrepared() bool {
	return c.shared.cuts.Len() > 0 || c.shared.fns.Len() > 0
}

// enableMemo attaches a fresh memoization cache and the per-function
// touched-object sets; every Prepare path calls it once.
func (c *Compiled) enableMemo() {
	c.memo = memo.New(0)
	c.touched = make(map[*ir.Func][]int, len(c.Mod.Funcs))
	for _, f := range c.Mod.Funcs {
		c.touched[f] = rhop.TouchedObjects(f)
	}
}

// MemoStats snapshots the memoization cache counters (zero when caching is
// disabled). Hit counts depend on evaluation order and are therefore not
// deterministic across worker counts; cached values always are.
func (c *Compiled) MemoStats() memo.Stats { return c.memo.Stats() }

// ShrinkMemo evicts least-recently-used memoization entries until at most n
// remain (a no-op when caching is disabled) and drops the shared RHOP state
// (ReleasePrepared) and the GDP data-partition memo. It is the
// memory-pressure release valve for long-lived Compiled values: results
// are unaffected — evicted entries recompute (or reload from the disk
// tier) on next use.
func (c *Compiled) ShrinkMemo(n int) {
	c.memo.Shrink(n)
	c.ReleasePrepared()
	c.dataParts.Clear()
}

// DefaultUnroll is the loop unrolling factor Prepare applies, matching the
// aggressive unrolling of the paper's VLIW toolchain (it creates the
// cross-iteration ILP that makes a clustered machine worth filling).
const DefaultUnroll = 4

// Prepare compiles src with the default unroll factor, runs points-to
// analysis, and profiles one execution.
func Prepare(name, src string) (*Compiled, error) {
	return PrepareOpts(context.Background(), name, src, Options{})
}

// PrepareOpts is Prepare under a context, with explicit profiling knobs:
// compilation is skipped if ctx is already done, a ctx deadline bounds the
// profiling run's wall clock, and opts supplies the MaxSteps/MaxBytes
// budgets and the CacheDir/CacheMaxBytes disk-cache knobs (a cached
// profile replaces the profiling execution; other Options fields are
// ignored here).
func PrepareOpts(ctx context.Context, name, src string, opts Options) (*Compiled, error) {
	return PrepareFullOpts(ctx, name, src, DefaultUnroll, true, opts)
}

// PrepareFullOpts is the full Prepare implementation: front end, points-to
// analysis, and one profiling execution on the bytecode VM
// (internal/bytecode), which charges the step/byte/deadline budgets. It
// exposes every front-end knob: the unroll factor (1 disables) and whether
// the classical optimizer (fold/copy-prop/CSE/DCE) runs before analysis.
func PrepareFullOpts(ctx context.Context, name, src string, unroll int, optimize bool, opts Options) (*Compiled, error) {
	iopts := profile.Options{MaxSteps: opts.maxSteps(), MaxBytes: opts.MaxBytes}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("eval: %s: %w", name, err)
		}
		if dl, ok := ctx.Deadline(); ok {
			iopts.Deadline = dl
		}
	}
	o := obs.From(ctx).Named("prepare")
	psp := o.Span(name)
	po := psp.Observer()
	sp := po.Span("parse")
	mod, err := mclang.CompileUnrolled(src, name, unroll)
	sp.End()
	if err != nil {
		psp.End()
		return nil, fmt.Errorf("eval: %s: %w", name, err)
	}
	if optimize {
		opt.Optimize(mod)
	}
	sp = po.Span("pointsto")
	pointsto.Analyze(mod)
	sp.End()
	// Persistent profile cache: a stored run for this exact module whose
	// step count fits the current budget replaces the execution entirely
	// (the interpreter is deterministic, so the stored Profile and checksum
	// are the ones this run would produce). See store.go.
	var pstore *store.Store
	var pprefix string
	// A byte budget disables the cached-profile shortcut: stored profiles
	// record steps but not peak heap, so serving one could mask the byte
	// BudgetError a cold run would raise (determinism across cache states).
	if opts.CacheDir != "" && opts.MaxBytes <= 0 {
		if st, serr := store.OpenShared(opts.CacheDir, store.Options{MaxBytes: opts.CacheMaxBytes}); serr == nil {
			st.SetObserver(po)
			pstore, pprefix = st, keyPrefix(moduleHash(mod))
			if prof, ret, ok := cachedProfile(st, pprefix, mod, iopts.MaxSteps); ok {
				psp.End()
				o.Counter("prepare_programs").Add(1)
				c := &Compiled{Name: name, Mod: mod, Prof: prof, Ret: ret}
				c.enableMemo()
				_ = c.attachStore(opts.CacheDir, opts.CacheMaxBytes, pprefix, po)
				return c, nil
			}
		}
	}
	sp = po.Span("profile")
	prog, err := bytecode.Compile(mod)
	if err != nil {
		sp.End()
		psp.End()
		return nil, fmt.Errorf("eval: %s: %w", name, err)
	}
	vm := bytecode.NewVM(prog, iopts)
	vm.SetObserver(po)
	v, err := vm.RunMain()
	prof := vm.Profile()
	sp.End()
	psp.End()
	o.Counter("prepare_programs").Add(1)
	if err != nil {
		return nil, fmt.Errorf("eval: %s: profile run: %w", name, err)
	}
	c := &Compiled{Name: name, Mod: mod, Prof: prof, Ret: v.I}
	c.enableMemo()
	if pstore != nil {
		putProfile(pstore, pprefix, mod, prof, v.I)
		_ = c.attachStore(opts.CacheDir, opts.CacheMaxBytes, pprefix, po)
	}
	return c, nil
}

// Result is one scheme's outcome on one benchmark and machine.
type Result struct {
	Scheme  Scheme
	Cycles  int64
	Moves   int64
	DataMap gdp.DataMap        // nil for Unified
	Assign  map[*ir.Func][]int // final computation partition
	Locks   map[*ir.Func]rhop.Locks

	// Groups are the data partitioner's indivisible must-alias object
	// merge groups (GDP only; nil elsewhere). The validator's capacity
	// bound allows one unit of slack per cluster, because a merged group
	// has to live somewhere whole.
	Groups [][]int

	// DetailedRuns counts invocations of the detailed computation
	// partitioner (§4.5: ProfileMax needs two, GDP and Naïve one each).
	// The count is of logical runs — a run that is served entirely from
	// the memoization cache still counts, preserving the paper's
	// accounting; the hit counters below record the caching separately.
	DetailedRuns int
	// PartitionTime is the wall time spent in those invocations.
	PartitionTime time.Duration

	// Degraded is non-nil when a matrix runner substituted a fallback
	// scheme for the requested one (Options.Fallback): Scheme then names
	// the scheme that actually produced these numbers and Degraded records
	// which scheme was asked for and why it failed.
	Degraded *Degradation

	// MemoPartitionHits and MemoScheduleHits count the per-function
	// partition and schedule-cost computations served from the
	// memoization cache during this scheme run. Like PartitionTime they
	// are performance telemetry, not results: under a parallel worker
	// pool the counts vary with evaluation order, so determinism
	// comparisons must exclude them (see detFields in the tests).
	MemoPartitionHits int
	MemoScheduleHits  int

	// Metrics is the snapshot of this run's scoped metric registry —
	// every counter the pipeline recorded while producing this result
	// (eval_cycles, fm_moves, sched_bus_busy_cycles, ...). Nil unless
	// Options.Observer was set. Like the memo hit counters it is
	// telemetry: memo-dependent values vary with evaluation order.
	Metrics obs.Snapshot
}

// Options bundles the per-scheme knobs.
type Options struct {
	GDP  gdp.Options
	RHOP rhop.Options
	// MaxSteps bounds the profiling run in Prepare (the usual sentinel:
	// non-positive means the default of 10 million steps). Programs that
	// exceed it fail Prepare with a typed *profile.BudgetError.
	MaxSteps int64
	// MaxBytes bounds the heap the profiling run may allocate (global
	// storage plus every malloc); exceeding it fails Prepare with a typed
	// *profile.BudgetError. Non-positive means no byte budget. A per-request
	// byte budget is the daemon's containment against allocation bombs.
	MaxBytes int64
	// Workers bounds the evaluation worker pool used by Exhaustive,
	// RunAllSchemes and RunMatrix. Zero or negative selects
	// runtime.GOMAXPROCS(0) — the repository-wide sentinel convention
	// (see parallel.Workers). Results are identical for every worker
	// count; only wall time changes.
	Workers int
	// CacheDir names a directory holding the persistent artifact store
	// (internal/store): partition, lock, schedule, and profile results keyed
	// by content hashes survive process restarts there. Empty (the default)
	// disables the disk tier. The cache changes wall time and telemetry
	// counters only — results are byte-identical across {no cache, cold
	// cache, warm cache, corrupt cache}.
	CacheDir string
	// CacheMaxBytes bounds the artifact log's size; once full, new writes
	// are shed (reads keep working). Non-positive selects
	// store.DefaultMaxBytes.
	CacheMaxBytes int64
	// Validate runs the independent schedule-level validator
	// (internal/check) over every scheme result before it is returned; an
	// invalid result becomes an error (and, under Fallback, triggers the
	// degradation chain). The validator re-derives homes, §3.4 locks, FU
	// and bus occupancy, ready times, and the cycle accounting from first
	// principles.
	Validate bool
	// Fallback enables graceful scheme degradation in the matrix runners:
	// a GDP cell that fails or validates invalid falls back to ProfileMax,
	// then Naive (ProfileMax falls back to Naive), recording the
	// substitution in Result.Degraded instead of failing the whole matrix.
	Fallback bool
	// Observer receives the run's observability stream: hierarchical
	// spans for every pipeline phase and a typed metric registry (see
	// internal/obs and DESIGN.md §10). Each scheme run records into a
	// scoped child registry whose snapshot lands in Result.Metrics; the
	// totals are then folded back into this observer's registry twice —
	// once unlabeled and once labeled `bench="...",scheme="..."`. Nil
	// disables observability at zero cost on the hot paths.
	Observer *obs.Observer
	// Inject, when non-nil, is consulted at the start of each pipeline
	// stage — "data" (GDP's object partitioning), "partition", "sched",
	// "validate" — with the scheme under evaluation; a non-nil return
	// aborts that stage with the returned error. Fault injection for the
	// degradation and containment tests.
	Inject func(scheme Scheme, stage string) error
	// ctx carries the run's cancellation context; it is attached by the
	// *Ctx entry points (RunSchemeCtx, RunMatrixCtx, ExhaustiveCtx) and
	// checked between per-function pipeline steps.
	ctx context.Context
}

// Degradation records that a result was produced by a fallback scheme
// after the requested one failed or was invalid.
type Degradation struct {
	// From is the scheme originally requested.
	From Scheme
	// Err is the failure that triggered the fallback (possibly a
	// *parallel.PanicError or a *check.Error).
	Err error
}

// inject consults the fault-injection hook for a pipeline stage.
func (o Options) inject(s Scheme, stage string) error {
	if o.Inject == nil {
		return nil
	}
	return o.Inject(s, stage)
}

// ctxErr reports the attached context's cancellation state (nil when no
// context was attached).
func (o Options) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	return o.ctx.Err()
}

// validateResult runs the independent validator over a finished scheme
// result when Options.Validate is set. Capacity is enforced only for GDP:
// it is the one scheme that promises balanced homes (Profile Max's
// threshold rule deliberately overflows, Naïve ignores balance).
func (o Options) validateResult(c *Compiled, cfg *machine.Config, res *Result) error {
	if !o.Validate {
		return nil
	}
	if err := o.inject(res.Scheme, "validate"); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	sp := o.Observer.Span("validate")
	defer sp.End()
	o.Observer.Counter("eval_validations").Add(1)
	return o.countViolations(check.Validate(c.Mod, c.Prof, cfg, check.Result{
		Scheme:        string(res.Scheme),
		DataMap:       res.DataMap,
		Assign:        res.Assign,
		Locks:         res.Locks,
		Cycles:        res.Cycles,
		Moves:         res.Moves,
		Groups:        res.Groups,
		CheckCapacity: res.Scheme == SchemeGDP,
	}, check.Options{}))
}

// validateEntry runs the independent validator over one sweep cost-table
// entry when Options.Validate is set: f's partition asg under locks, with
// f's objects homed by dm, must pass check.ValidateFunc and recompute to
// the cycles and moves the table recorded.
func (o Options) validateEntry(c *Compiled, cfg *machine.Config, f *ir.Func, asg []int, locks rhop.Locks, dm gdp.DataMap, cost sched.Cost) error {
	if !o.Validate {
		return nil
	}
	if err := o.inject(SchemeFixed, "validate"); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	sp := o.Observer.Span("validate", "func", f.Name)
	defer sp.End()
	o.Observer.Counter("eval_validations").Add(1)
	cycles, moves, err := check.ValidateFunc(f, asg, locks, dm, cfg, c.Prof)
	if err != nil {
		var ce *check.Error
		if errors.As(err, &ce) {
			ce.Scheme = string(SchemeFixed)
		}
		return o.countViolations(err)
	}
	if vs := appendAccount(nil, f.Name, cost.Cycles, cycles, cost.Moves, moves); vs != nil {
		return o.countViolations(&check.Error{Scheme: string(SchemeFixed), Violations: vs})
	}
	return nil
}

// appendAccount appends an accounting violation for each reported total
// that differs from its recomputed value.
func appendAccount(vs []check.Violation, fn string, cycles, wantCycles, moves, wantMoves int64) []check.Violation {
	if cycles != wantCycles {
		vs = append(vs, check.Violation{Class: check.ClassAccount, Func: fn, Block: -1,
			Detail: fmt.Sprintf("reported %d cycles, recomputed %d", cycles, wantCycles)})
	}
	if moves != wantMoves {
		vs = append(vs, check.Violation{Class: check.ClassAccount, Func: fn, Block: -1,
			Detail: fmt.Sprintf("reported %d moves, recomputed %d", moves, wantMoves)})
	}
	return vs
}

// countViolations adds a validator error's violations to the
// eval_validation_violations counter and returns err unchanged.
func (o Options) countViolations(err error) error {
	var ce *check.Error
	if errors.As(err, &ce) {
		o.Observer.Counter("eval_validation_violations").Add(int64(len(ce.Violations)))
	}
	return err
}

func (o Options) maxSteps() int64 { return defaults.Int64(o.MaxSteps, 10_000_000) }

// rhopOpts returns o.RHOP with the run-wide observer injected unless RHOP
// names its own.
func (o Options) rhopOpts() rhop.Options {
	r := o.RHOP
	if r.Obs == nil {
		r.Obs = o.Observer
	}
	return r
}

// gdpOpts injects the same run-wide observer into o.GDP.
func (o Options) gdpOpts() gdp.Options {
	g := o.GDP
	if g.Obs == nil {
		g.Obs = o.Observer
	}
	return g
}

// beginRun opens one scheme run: it leases c's shared RHOP state for the
// run's lifetime and opens its observability scope — a span named after
// the scheme (attributed with the benchmark), and a scoped child registry
// that collects only this run's metrics. The returned Options carry the
// scoped observer so every downstream layer (gdp, rhop, sched, validate)
// records into it; the returned done callback — which the RunX functions
// defer — ends the lease, stamps the headline counters, snapshots the
// scoped registry into Result.Metrics, and folds the totals back into the
// parent registry both unlabeled and labeled `bench="...",scheme="...".
// With a nil observer only the lease remains.
func beginRun(c *Compiled, s Scheme, opts Options) (Options, func(*Result, error)) {
	parent := opts.Observer
	if opts.CacheDir != "" {
		// A failed open degrades to memory-only caching: a broken cache
		// directory must never break an evaluation. The CLI tools open the
		// store up front to surface such errors to the user.
		_ = c.attachStore(opts.CacheDir, opts.CacheMaxBytes, "", parent)
	}
	release := c.lease()
	if parent == nil {
		return opts, func(*Result, error) { release() }
	}
	// The memoization cache is shared across every run over this Compiled,
	// so its counters belong to the parent (global) registry, not the
	// scoped per-run one.
	c.memo.SetObserver(parent)
	sp := parent.Span(string(s), "bench", c.Name)
	o := parent.Scoped().Named(string(s))
	opts.Observer = o
	done := func(r *Result, err error) {
		release()
		if err != nil {
			sp.SetAttr("error", "true")
		}
		if r != nil {
			reg := o.Registry()
			reg.Counter("eval_cycles").Add(r.Cycles)
			reg.Counter("eval_moves").Add(r.Moves)
			reg.Counter("eval_detailed_runs").Add(int64(r.DetailedRuns))
			reg.Counter("memo_partition_hits").Add(int64(r.MemoPartitionHits))
			reg.Counter("memo_schedule_hits").Add(int64(r.MemoScheduleHits))
			snap := reg.Snapshot()
			r.Metrics = snap
			parent.Registry().Import(snap, "")
			parent.Registry().Import(snap, `bench="`+c.Name+`",scheme="`+string(r.Scheme)+`"`)
		}
		sp.End()
	}
	return opts, done
}

// lockSigKey appends f's projected lock signature under dm: the home
// cluster of each object f's memory operations may touch, in sorted object
// order. Two data maps agreeing on this projection produce identical locks
// for f — and therefore identical partitions — no matter how they map the
// module's other objects.
func lockSigKey(k *memo.Key, c *Compiled, f *ir.Func, dm gdp.DataMap) *memo.Key {
	return k.Proj(dm, c.touched[f])
}

// funcLocks returns f's memory-op locks under dm (gdp.ComputeLocksFunc),
// memoized under the "locks" key by f's projected lock signature. The map
// is the cache's master: callers that hand it out copy it. The error is
// that of a computation this call waited on and that panicked.
func (c *Compiled) funcLocks(f *ir.Func, dm gdp.DataMap) (rhop.Locks, error) {
	key := lockSigKey(memo.NewKey("locks").Str(f.Name), c, f, dm).String()
	v, _, err := c.memo.DoCodec(key, lockCodec{}, func() (any, error) {
		return gdp.ComputeLocksFunc(f, dm, c.Prof), nil
	})
	locks, _ := v.(rhop.Locks) // nil when err is set
	return locks, err
}

// computeLocks returns every function's locks under dm. Every caller gets
// private copies of the lock maps (schemes and callers may hold them in
// Results while other runs share the cache).
func computeLocks(c *Compiled, dm gdp.DataMap) (map[*ir.Func]rhop.Locks, error) {
	out := make(map[*ir.Func]rhop.Locks, len(c.Mod.Funcs))
	for _, f := range c.Mod.Funcs {
		master, err := c.funcLocks(f, dm)
		if err != nil {
			return nil, err
		}
		cp := make(rhop.Locks, len(master))
		for id, cl := range master {
			cp[id] = cl
		}
		out[f] = cp
	}
	return out, nil
}

// partitionKey identifies one per-function detailed-partitioner result:
// the function, its lock configuration (by projected data-map signature
// when one is available, by explicit lock pairs otherwise, "U" for
// unlocked), the machine, and the partitioner options.
func partitionKey(c *Compiled, f *ir.Func, dm gdp.DataMap, locks rhop.Locks, mkey, okey string) string {
	k := memo.NewKey("part").Str(f.Name).Str(mkey).Str(okey)
	switch {
	case dm != nil:
		lockSigKey(k.Str("D"), c, f, dm)
	case locks == nil:
		k.Str("U")
	default:
		// Hand-supplied locks with no data map: canonical sorted pairs.
		ids := make([]int, 0, len(locks))
		for id := range locks {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		pairs := make([]int, 0, 2*len(ids))
		for _, id := range ids {
			pairs = append(pairs, id, locks[id])
		}
		k.Str("L").Ints(pairs)
	}
	return k.String()
}

// funcSteps is the per-function partition → cycles step of one pass over a
// module (a scheme run's partitioning or scheduling pass) or of one
// function's sweep table, on one machine. Each step looks its result up
// under its memo key ("part", "sched"; funcLocks holds "locks") — memory
// tier, then artifact store — and computes it only on a miss, through the
// function's leased rhop.Prepared: partitions through one
// rhop.FuncPartitioner per function, whose region memo serves every lock
// map the step is asked for, and cycles through the Prepared's block cache
// for the machine, where the partitioner has already scheduled most
// blocks. A funcSteps is not safe for concurrent use.
type funcSteps struct {
	c          *Compiled
	cfg        *machine.Config
	ropts      rhop.Options
	mkey, okey string
	obs        *obs.Observer
	// fp partitions fpFunc; it is made on a partition miss for a function
	// it does not serve yet.
	fp     *rhop.FuncPartitioner
	fpFunc *ir.Func
	// sc is made on the first schedule miss: an owned Scratch lets the
	// observer's sched counters attach.
	sc *sched.Scratch
}

func newFuncSteps(c *Compiled, cfg *machine.Config, opts Options) *funcSteps {
	ropts := opts.rhopOpts()
	return &funcSteps{c: c, cfg: cfg, ropts: ropts, mkey: cfg.CacheKey(), okey: ropts.CacheKey(), obs: opts.Observer}
}

// partition returns f's partition under locks — the locks dm induces, or
// hand-supplied ones when dm is nil — and whether the cache served it. The
// slice is the cache's master: callers that hand it out copy it.
func (s *funcSteps) partition(f *ir.Func, dm gdp.DataMap, locks rhop.Locks) ([]int, bool, error) {
	v, hit, err := s.c.memo.DoCodec(partitionKey(s.c, f, dm, locks, s.mkey, s.okey), partCodec{}, func() (any, error) {
		if s.fpFunc != f {
			p, err := s.c.prepared(f)
			if err != nil {
				return nil, err
			}
			s.fp, s.fpFunc = p.NewPartitioner(s.cfg, s.ropts), f
		}
		return s.fp.Partition(locks)
	})
	if err != nil {
		return nil, false, err
	}
	return v.([]int), hit, nil
}

// cycles returns f's profile-weighted cycles and moves under asg, memoized
// under the "sched" key by (function, machine, assignment), and whether the
// cache served them.
func (s *funcSteps) cycles(f *ir.Func, asg []int) (sched.Cost, bool, error) {
	key := memo.NewKey("sched").Str(f.Name).Str(s.mkey).Ints(asg).String()
	v, hit, err := s.c.memo.DoCodec(key, schedCodec{}, func() (any, error) {
		p, err := s.c.prepared(f)
		if err != nil {
			return nil, err
		}
		if s.sc == nil {
			s.sc = sched.NewScratch()
			s.sc.SetObserver(s.obs)
		}
		cyc, mv := s.sc.FuncCycles(p.BlockCache(s.cfg), asg, s.c.Prof)
		return [2]int64{cyc, mv}, nil
	})
	pair, _ := v.([2]int64) // zero when err is set
	return sched.Cost{Cycles: pair[0], Moves: pair[1]}, hit, err
}

// partitionModule runs the detailed partitioner over the module through
// funcSteps. It keeps the §4.5 accounting semantics: every call counts as
// one logical DetailedRun and its wall time (however small a cache hit
// makes it) accrues to PartitionTime, while per-function cache hits are
// recorded separately in res.MemoPartitionHits. Returned assignment slices
// are private copies — RunNaive mutates its assignment in place, so cached
// masters must never be aliased.
func partitionModule(c *Compiled, cfg *machine.Config, dm gdp.DataMap,
	locks map[*ir.Func]rhop.Locks, opts Options, res *Result) (map[*ir.Func][]int, error) {

	if err := opts.inject(res.Scheme, "partition"); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	if err := opts.ctxErr(); err != nil {
		return nil, err
	}
	sp := opts.Observer.Span("partition")
	defer sp.End()
	start := time.Now()
	defer func() {
		res.PartitionTime += time.Since(start)
		res.DetailedRuns++
	}()
	steps := newFuncSteps(c, cfg, opts)
	out := make(map[*ir.Func][]int, len(c.Mod.Funcs))
	for _, f := range c.Mod.Funcs {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		asg, hit, err := steps.partition(f, dm, locks[f])
		if err != nil {
			return nil, err
		}
		if hit {
			res.MemoPartitionHits++
		}
		out[f] = append([]int(nil), asg...)
	}
	return out, nil
}

// programCycles computes the program's profile-weighted cycle and move
// counts under asg: the sum of the per-function funcSteps cycles.
func programCycles(c *Compiled, cfg *machine.Config, asg map[*ir.Func][]int,
	opts Options, res *Result) (cycles, moves int64, err error) {

	if err := opts.inject(res.Scheme, "sched"); err != nil {
		return 0, 0, fmt.Errorf("schedule: %w", err)
	}
	if err := opts.ctxErr(); err != nil {
		return 0, 0, err
	}
	sp := opts.Observer.Span("sched")
	defer sp.End()
	steps := newFuncSteps(c, cfg, opts)
	for _, f := range c.Mod.Funcs {
		cost, hit, err := steps.cycles(f, asg[f])
		if err != nil {
			return 0, 0, err
		}
		if hit {
			res.MemoScheduleHits++
		}
		cycles += cost.Cycles
		moves += cost.Moves
	}
	return cycles, moves, nil
}

// finish completes a scheme run: record the assignment, recompute the
// profile-weighted cycle counts through the (possibly memoized) scheduler,
// and validate the result when Options.Validate is set.
func finish(c *Compiled, cfg *machine.Config, res *Result, asg map[*ir.Func][]int, opts Options) (*Result, error) {
	res.Assign = asg
	var err error
	res.Cycles, res.Moves, err = programCycles(c, cfg, asg, opts, res)
	if err != nil {
		return nil, err
	}
	if err := opts.validateResult(c, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunUnified evaluates the unified-memory upper bound: plain RHOP with no
// object homes; every cluster reaches the single multiported memory at the
// uniform load latency.
func RunUnified(c *Compiled, cfg *machine.Config, opts Options) (r *Result, err error) {
	opts, done := beginRun(c, SchemeUnified, opts)
	defer func() { done(r, err) }()
	res := &Result{Scheme: SchemeUnified}
	asg, err := partitionModule(c, cfg, nil, nil, opts, res)
	if err != nil {
		return nil, err
	}
	return finish(c, cfg, res, asg, opts)
}

// RunGDP evaluates the paper's Global Data Partitioning: first pass
// partitions data objects over the program-level graph, second pass runs
// RHOP with memory operations locked to their object's home cluster.
func RunGDP(c *Compiled, cfg *machine.Config, opts Options) (r *Result, err error) {
	opts, done := beginRun(c, SchemeGDP, opts)
	defer func() { done(r, err) }()
	res := &Result{Scheme: SchemeGDP}
	if err := opts.inject(SchemeGDP, "data"); err != nil {
		return nil, fmt.Errorf("data partition: %w", err)
	}
	dsp := opts.Observer.Span("data")
	dp, err := gdp.PartitionDataOn(c.Mod, c.Prof, cfg, opts.gdpOpts(), &c.dataParts)
	dsp.End()
	if err != nil {
		return nil, err
	}
	res.DataMap = dp.DataMap
	res.Groups = dp.Groups
	if res.Locks, err = computeLocks(c, dp.DataMap); err != nil {
		return nil, err
	}
	asg, err := partitionModule(c, cfg, dp.DataMap, res.Locks, opts, res)
	if err != nil {
		return nil, err
	}
	return finish(c, cfg, res, asg, opts)
}

// RunWithDataMap evaluates an externally chosen object mapping (used by the
// Figure 9 exhaustive search): lock memory ops to dm's homes and run the
// second pass.
func RunWithDataMap(c *Compiled, cfg *machine.Config, dm gdp.DataMap, opts Options) (r *Result, err error) {
	opts, done := beginRun(c, SchemeFixed, opts)
	defer func() { done(r, err) }()
	res := &Result{Scheme: SchemeFixed, DataMap: dm}
	if res.Locks, err = computeLocks(c, dm); err != nil {
		return nil, err
	}
	asg, err := partitionModule(c, cfg, dm, res.Locks, opts, res)
	if err != nil {
		return nil, err
	}
	return finish(c, cfg, res, asg, opts)
}

// profileMaxTol is the memory balance threshold of the Profile Max greedy
// assignment, matching GDP's default MemTol. The Affinity baseline shares
// it.
const profileMaxTol = 0.10

// RunProfileMax evaluates the Profile Max baseline: run RHOP assuming a
// unified memory, record where each merged object group's accesses landed,
// greedily assign groups to their majority cluster in descending dynamic
// frequency order under a memory balance threshold, then re-run RHOP with
// the resulting locks (two detailed-partitioner runs, §4.5).
func RunProfileMax(c *Compiled, cfg *machine.Config, opts Options) (r *Result, err error) {
	opts, done := beginRun(c, SchemeProfileMax, opts)
	defer func() { done(r, err) }()
	res := &Result{Scheme: SchemeProfileMax}
	k := cfg.NumClusters()
	firstAsg, err := partitionModule(c, cfg, nil, nil, opts, res)
	if err != nil {
		return nil, err
	}
	groups := gdp.MergeObjects(c.Mod)
	groupOf := map[int]int{}
	for gi, g := range groups {
		for _, objID := range g {
			groupOf[objID] = gi
		}
	}
	// Dynamic access frequency of each group per cluster under the
	// unified partition.
	freq := make([][]int64, len(groups))
	for i := range freq {
		freq[i] = make([]int64, k)
	}
	for _, f := range c.Mod.Funcs {
		asg := firstAsg[f]
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				counts, ok := c.Prof.OpObj[op]
				if !ok {
					continue
				}
				for objID, n := range counts {
					freq[groupOf[objID]][asg[op.ID]] += n
				}
			}
		}
	}
	// Greedy assignment in descending total frequency.
	type gf struct {
		gi    int
		total int64
	}
	order := make([]gf, len(groups))
	for gi := range groups {
		var t int64
		for _, n := range freq[gi] {
			t += n
		}
		order[gi] = gf{gi, t}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].total != order[j].total {
			return order[i].total > order[j].total
		}
		return order[i].gi < order[j].gi
	})
	var totalBytes int64
	groupBytes := make([]int64, len(groups))
	for gi, g := range groups {
		for _, objID := range g {
			b := objectBytes(c, objID)
			groupBytes[gi] += b
			totalBytes += b
		}
	}
	fractions := cfg.MemFractions()
	limits := make([]int64, k)
	for cl := 0; cl < k; cl++ {
		frac := 1 / float64(k)
		if fractions != nil {
			frac = fractions[cl]
		}
		limits[cl] = int64(float64(totalBytes) * frac * (1 + profileMaxTol))
	}
	loaded := make([]int64, k)
	dm := make(gdp.DataMap, len(c.Mod.Objects))
	for _, o := range order {
		// Preferred cluster: the one with the most dynamic accesses
		// (ties to lower load, then lower index).
		prefs := make([]int, k)
		for i := range prefs {
			prefs[i] = i
		}
		sort.Slice(prefs, func(i, j int) bool {
			a, b := prefs[i], prefs[j]
			if freq[o.gi][a] != freq[o.gi][b] {
				return freq[o.gi][a] > freq[o.gi][b]
			}
			if loaded[a] != loaded[b] {
				return loaded[a] < loaded[b]
			}
			return a < b
		})
		// The paper's threshold rule: when the preferred memory is full,
		// the object is *forced* onto another cluster (the least loaded),
		// even if that one is over threshold too.
		chosen := prefs[0]
		if loaded[chosen]+groupBytes[o.gi] > limits[chosen] {
			forced := -1
			for _, p := range prefs[1:] {
				if forced == -1 || loaded[p] < loaded[forced] {
					forced = p
				}
			}
			if forced >= 0 {
				chosen = forced
			}
		}
		loaded[chosen] += groupBytes[o.gi]
		for _, objID := range groups[o.gi] {
			dm[objID] = chosen
		}
	}
	res.DataMap = dm
	if res.Locks, err = computeLocks(c, dm); err != nil {
		return nil, err
	}
	asg, err := partitionModule(c, cfg, dm, res.Locks, opts, res)
	if err != nil {
		return nil, err
	}
	return finish(c, cfg, res, asg, opts)
}

// RunNaive evaluates the Naïve postpass of §2/Figure 2: partition assuming
// unified memory, then pin each data object to the cluster where it was
// accessed most often, re-home every memory operation accordingly (the
// scheduler inserts the data transfer moves), and reschedule without
// repartitioning. Memory balance is deliberately ignored.
func RunNaive(c *Compiled, cfg *machine.Config, opts Options) (r *Result, err error) {
	opts, done := beginRun(c, SchemeNaive, opts)
	defer func() { done(r, err) }()
	res := &Result{Scheme: SchemeNaive}
	k := cfg.NumClusters()
	asg, err := partitionModule(c, cfg, nil, nil, opts, res)
	if err != nil {
		return nil, err
	}
	// Per-object access frequency per cluster under the unified partition.
	freq := make(map[int][]int64, len(c.Mod.Objects))
	for _, o := range c.Mod.Objects {
		freq[o.ID] = make([]int64, k)
	}
	for _, f := range c.Mod.Funcs {
		fa := asg[f]
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				for objID, n := range c.Prof.OpObj[op] {
					freq[objID][fa[op.ID]] += n
				}
			}
		}
	}
	dm := make(gdp.DataMap, len(c.Mod.Objects))
	for _, o := range c.Mod.Objects {
		best := 0
		for cl := 1; cl < k; cl++ {
			if freq[o.ID][cl] > freq[o.ID][best] {
				best = cl
			}
		}
		dm[o.ID] = best
	}
	res.DataMap = dm
	// Re-home memory operations onto their object's cluster; everything
	// else stays put and the scheduler pays the transfers. asg is this
	// call's private copy (partitionModule never returns cached masters),
	// so the in-place mutation cannot corrupt the memo cache.
	locks, err := computeLocks(c, dm)
	if err != nil {
		return nil, err
	}
	res.Locks = locks
	for _, f := range c.Mod.Funcs {
		fa := asg[f]
		for id, cl := range locks[f] {
			fa[id] = cl
		}
	}
	return finish(c, cfg, res, asg, opts)
}

func objectBytes(c *Compiled, objID int) int64 {
	if b, ok := c.Prof.ObjBytes[objID]; ok && b > 0 {
		return b
	}
	return c.Mod.Objects[objID].Size
}

// RelativePerf is a figure-7/8 bar: scheme performance relative to the
// unified memory model (1.0 = matches unified; higher is better).
func RelativePerf(unified, scheme *Result) float64 {
	if scheme.Cycles == 0 {
		return 0
	}
	return float64(unified.Cycles) / float64(scheme.Cycles)
}

// CycleIncreasePct is the figure-2 metric: percent extra cycles over the
// unified model.
func CycleIncreasePct(unified, scheme *Result) float64 {
	return 100 * (float64(scheme.Cycles) - float64(unified.Cycles)) / float64(unified.Cycles)
}

// MoveIncreasePct is the figure-10 metric: percent extra dynamic
// intercluster moves over the unified model.
func MoveIncreasePct(unified, scheme *Result) float64 {
	if unified.Moves == 0 {
		if scheme.Moves == 0 {
			return 0
		}
		return 100
	}
	return 100 * (float64(scheme.Moves) - float64(unified.Moves)) / float64(unified.Moves)
}
