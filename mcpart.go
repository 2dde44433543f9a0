// Package mcpart is a compiler-directed data and computation partitioner
// for multicluster (clustered VLIW) processors — a from-scratch
// reproduction of Chu & Mahlke, "Compiler-directed Data Partitioning for
// Multicluster Processors" (CGO 2006).
//
// The pipeline compiles a program written in mclang (a small C-like
// language), analyzes which data objects every memory operation can touch,
// profiles one execution, and then partitions both the data objects
// (globals and heap allocation sites) and the computation operations across
// the clusters of a parameterized VLIW machine. Cycle counts come from a
// cluster-aware list scheduler that materializes intercluster moves.
//
// Quick start:
//
//	p, err := mcpart.Compile("demo", src)
//	m := mcpart.Paper2Cluster(5) // the paper's machine, 5-cycle moves
//	cmp, err := mcpart.EvaluateAll(p, m)
//	fmt.Println(cmp.GDP.Cycles, cmp.Unified.Cycles)
//
// The four schemes match the paper's Table 1: SchemeGDP (the paper's
// contribution: global data partitioning followed by lock-aware RHOP),
// SchemeProfileMax, SchemeNaive, and SchemeUnified (the shared-memory upper
// bound).
package mcpart

import (
	"context"
	"fmt"
	"sort"

	"mcpart/internal/bench"
	"mcpart/internal/check"
	"mcpart/internal/eval"
	"mcpart/internal/gdp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/memo"
	"mcpart/internal/obs"
	"mcpart/internal/parallel"
	"mcpart/internal/profile"
	"mcpart/internal/rhop"
	"mcpart/internal/sched"
	"mcpart/internal/store"
)

// Machine describes a multicluster VLIW target (clusters, function units,
// intercluster network).
type Machine = machine.Config

// Scheme names one of the paper's partitioning strategies.
type Scheme = eval.Scheme

// The schemes of the paper's Table 1.
const (
	SchemeUnified    = eval.SchemeUnified
	SchemeGDP        = eval.SchemeGDP
	SchemeProfileMax = eval.SchemeProfileMax
	SchemeNaive      = eval.SchemeNaive
)

// Result is one scheme's outcome: dynamic cycles, dynamic intercluster
// moves, the data map, and the computation assignment.
type Result = eval.Result

// Comparison holds all four schemes' results for one program and machine.
type Comparison = eval.BenchResult

// DataMap assigns each data object a home cluster memory.
type DataMap = gdp.DataMap

// Options tunes the partitioning schemes (see eval.Options, gdp.Options and
// rhop.Options for the individual knobs and their paper defaults). Of note
// for robustness: Validate re-checks every result with the independent
// internal/check validator, and Fallback substitutes the next-simpler scheme
// when one fails (recorded in Result.Degraded).
type Options = eval.Options

// Degradation records a scheme substitution performed under
// Options.Fallback: which scheme was requested and why it failed.
type Degradation = eval.Degradation

// CellError attributes a matrix or exhaustive-search failure to its
// (benchmark, scheme[, mask]) cell. errors.As recovers it from RunMatrix,
// EvaluateAll, and ExhaustiveSearch errors.
type CellError = eval.CellError

// ValidationError is the independent result validator's report: the list of
// invariant violations found in a scheme result (Options.Validate). External
// callers recover it with errors.As; Has selects by violation class.
type ValidationError = check.Error

// ViolationClass partitions validator findings; ValidationError.Has
// selects by class.
type ViolationClass = check.Class

// The validator's violation classes (see internal/check for the invariant
// each one guards).
const (
	ViolationHome     = check.ClassHome
	ViolationCapacity = check.ClassCapacity
	ViolationLock     = check.ClassLock
	ViolationAssign   = check.ClassAssign
	ViolationFU       = check.ClassFU
	ViolationBus      = check.ClassBus
	ViolationReady    = check.ClassReady
	ViolationAccount  = check.ClassAccount
)

// InternalError wraps a panic that escaped the partitioning pipeline: a bug
// in mcpart, not bad input. The zero-tolerance contract of this facade is
// that callers see it as an error, never as a crash.
type InternalError struct {
	Err error
}

func (e *InternalError) Error() string { return "mcpart: internal error: " + e.Err.Error() }

// Unwrap exposes the recovered panic (often a *parallel.PanicError carrying
// the stack) to errors.Is/As.
func (e *InternalError) Unwrap() error { return e.Err }

// contain converts a panic escaping a facade entry point into an
// *InternalError. Deeper layers (the worker pool, the matrix runners)
// already contain their own panics; this is the last line of defense for
// serial code paths.
func contain(err *error) {
	if pe := parallel.Recovered("mcpart", -1, recover()); pe != nil {
		*err = &InternalError{Err: pe}
	}
}

// run is the one path every evaluation entry point takes: it rejects an
// invalid machine before any work starts, then runs fn with its panics
// contained.
func run[T any](m *Machine, fn func() (T, error)) (r T, err error) {
	defer contain(&err)
	if err := m.Validate(); err != nil {
		return r, err
	}
	return fn()
}

// ExhaustiveResult is the Figure 9 dataset: every data mapping's cycles and
// balance, with the GDP and Profile Max choices marked.
type ExhaustiveResult = eval.ExhaustiveResult

// Observer is the pipeline observability handle (see internal/obs and
// DESIGN.md §10): hierarchical spans over every pipeline phase plus a typed
// counter/gauge/histogram registry. Attach one via Options.Observer (scheme
// runs) or ObserveContext (compilation). A nil *Observer is fully inert and
// costs nothing on the hot paths.
type Observer = obs.Observer

// MetricsRegistry is an Observer's typed metric store.
type MetricsRegistry = obs.Registry

// Metrics is a point-in-time, name-sorted snapshot of a metrics registry
// (also found per scheme run in Result.Metrics).
type Metrics = obs.Snapshot

// TraceSink accumulates span events; WriteJSONL renders them as sorted
// JSON lines, byte-identical for every worker count.
type TraceSink = obs.Trace

// Observability constructors and sinks, re-exported from internal/obs.
var (
	// NewTrace returns an empty span-trace sink.
	NewTrace = obs.NewTrace
	// NewMetricsRegistry returns an empty metric registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewObserver assembles an observer from a registry, an optional trace
	// sink, and a clock (nil = the deterministic fixed clock).
	NewObserver = obs.New
	// FixedClock is a clock pinned to one instant: deterministic traces.
	FixedClock = obs.FixedClock
	// WallClock reads real time (traces then vary run to run).
	WallClock = obs.WallClock
	// WriteMetricsSummary renders a snapshot as an aligned human-readable
	// table.
	WriteMetricsSummary = obs.WriteSummary
	// WriteMetricsProm renders a snapshot in Prometheus text exposition
	// format.
	WriteMetricsProm = obs.WritePrometheus
)

// ObserveContext attaches an observer to ctx so context-driven stages
// (benchmark compilation, the parallel worker pool) can record into it; a
// nil observer returns ctx unchanged.
func ObserveContext(ctx context.Context, o *Observer) context.Context {
	return obs.With(ctx, o)
}

// Machine presets.
var (
	// Paper2Cluster is the paper's evaluation machine: 2 homogeneous
	// clusters x {2 integer, 1 float, 1 memory, 1 branch}, one intercluster
	// move per cycle at the given latency (the paper uses 1, 5, and 10).
	Paper2Cluster = machine.Paper2Cluster
	// FourCluster scales the paper machine to four clusters.
	FourCluster = machine.FourCluster
	// Heterogeneous2 doubles cluster 0's integer bandwidth (§2's example).
	Heterogeneous2 = machine.Heterogeneous2
	// WithMemCapacities sets per-cluster scratchpad capacities on a copy
	// of a machine; the data partitioner then balances object bytes to the
	// capacity ratios (the paper's parameterized balance, §3.3.2).
	WithMemCapacities = machine.WithMemCapacities
	// RingFour is a four-cluster machine on a nearest-neighbor ring
	// (tiled-machine interconnect; moves cost MoveLatency per hop).
	RingFour = machine.RingFour
	// EightCluster scales the paper machine to eight bus-connected
	// clusters.
	EightCluster = machine.EightCluster
	// Ring8 is an eight-cluster nearest-neighbor ring.
	Ring8 = machine.Ring8
	// Mesh4 is a 2x2 mesh: moves cost Manhattan-hops x MoveLatency.
	Mesh4 = machine.Mesh4
	// Mesh8 is a 2x4 mesh.
	Mesh8 = machine.Mesh8
	// NUMA4 is a four-cluster near-data machine: two 2-cluster nodes with
	// cheap intra-node moves, 4x-latency inter-node moves, and asymmetric
	// scratchpad capacities (clusters 0-1 hold 3x the bytes of 2-3).
	NUMA4 = machine.NUMA4
	// WithLatencyMatrix replaces a machine's interconnect with an explicit
	// per-pair move-latency matrix (validated: zero diagonal, symmetric,
	// positive off-diagonal).
	WithLatencyMatrix = machine.WithLatencyMatrix
	// AsMatrix re-expresses any machine's interconnect as its explicit
	// latency matrix; results are byte-identical to the structural
	// topology (the cross-topology conformance suite pins this).
	AsMatrix = machine.AsMatrix
	// MachinePreset resolves a preset name (paper2, four, eight, hetero2,
	// ring4, ring8, mesh4, mesh8, numa4) to a machine at the given move
	// latency.
	MachinePreset = machine.Preset
	// MachinePresetNames lists the names MachinePreset accepts.
	MachinePresetNames = machine.PresetNames
)

// Program is a compiled, analyzed, and profiled program — the input every
// partitioning scheme shares.
type Program struct {
	c *eval.Compiled
}

// CompileOptions tunes the front end.
type CompileOptions struct {
	// Unroll is the innermost-loop unrolling factor; 0 means the default
	// (4, matching aggressive VLIW compilation), 1 disables unrolling.
	Unroll int
	// NoOptimize disables the classical optimizer (constant folding, copy
	// propagation, CSE, dead-code elimination) that otherwise runs before
	// analysis, as it would in the paper's Trimaran toolchain.
	NoOptimize bool
	// MaxSteps bounds the profiling run (the usual sentinel: non-positive
	// means the default of 10 million steps).
	MaxSteps int64
	// CacheDir names a persistent artifact-store directory (see
	// Options.CacheDir): when the store holds a profile for this exact
	// module, compilation skips the profiling execution entirely. Empty
	// disables the disk cache.
	CacheDir string
	// CacheMaxBytes bounds the artifact log (non-positive: the store's
	// 1 GiB default).
	CacheMaxBytes int64
	// MaxBytes bounds the heap the profiling run may allocate; exceeding it
	// fails compilation with a typed *profile.BudgetError. Non-positive
	// means no byte budget.
	MaxBytes int64
}

// Compile builds a Program from mclang source with default options.
func Compile(name, source string) (*Program, error) {
	return CompileWithOptions(name, source, CompileOptions{})
}

// CompileWithOptions builds a Program with explicit front-end options.
func CompileWithOptions(name, source string, opts CompileOptions) (*Program, error) {
	return CompileCtx(context.Background(), name, source, opts)
}

// CompileCtx is CompileWithOptions under a context: cancellation and
// deadline bound the profiling run, and an observer attached with
// ObserveContext records parse/pointsto/profile spans for the compilation.
func CompileCtx(ctx context.Context, name, source string, opts CompileOptions) (p *Program, err error) {
	defer contain(&err)
	unroll := opts.Unroll
	if unroll == 0 {
		unroll = eval.DefaultUnroll
	}
	c, err := eval.PrepareFullOpts(ctx, name, source, unroll, !opts.NoOptimize,
		eval.Options{MaxSteps: opts.MaxSteps, MaxBytes: opts.MaxBytes,
			CacheDir: opts.CacheDir, CacheMaxBytes: opts.CacheMaxBytes})
	if err != nil {
		return nil, err
	}
	return &Program{c: c}, nil
}

// Name returns the program's name.
func (p *Program) Name() string { return p.c.Name }

// Checksum returns main's return value from the profiling run.
func (p *Program) Checksum() int64 { return p.c.Ret }

// Module exposes the underlying IR for advanced use (printing, custom
// analyses).
func (p *Program) Module() *ir.Module { return p.c.Mod }

// Profile exposes the dynamic profile gathered during compilation.
func (p *Program) Profile() *profile.Profile { return p.c.Prof }

// ObjectInfo summarizes one data object for reporting.
type ObjectInfo struct {
	ID       int
	Name     string
	Heap     bool
	Bytes    int64 // profiled size (allocated bytes for heap sites)
	Accesses int64 // dynamic load/store count
}

// Objects lists the program's data objects in ID order.
func (p *Program) Objects() []ObjectInfo {
	out := make([]ObjectInfo, 0, len(p.c.Mod.Objects))
	for _, o := range p.c.Mod.Objects {
		bytes := o.Size
		if b, ok := p.c.Prof.ObjBytes[o.ID]; ok && b > 0 {
			bytes = b
		}
		out = append(out, ObjectInfo{
			ID:       o.ID,
			Name:     o.Name,
			Heap:     o.Kind == ir.ObjHeap,
			Bytes:    bytes,
			Accesses: p.c.Prof.ObjAccess[o.ID],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MemoStats are the counters of the program's partition-result memoization
// cache (internal/memo): how many per-function partition/schedule/lock
// computations were answered from cache versus computed, how many hits
// waited on an in-flight computation or were promoted from the disk tier,
// and the resident entries and LRU evictions. The counters describe work
// saved, never results: cached and uncached evaluations are byte-identical.
type MemoStats = memo.Stats

// MemoStats reports the program's memoization-cache counters.
func (p *Program) MemoStats() MemoStats { return p.c.MemoStats() }

// ShrinkMemo evicts least-recently-used memoization entries until at most n
// remain. Results are unaffected — evicted entries recompute (or reload
// from the disk tier) on next use; this is the memory-pressure release
// valve for long-lived Programs (the gdpd daemon calls it when the process
// heap crosses its ceiling).
func (p *Program) ShrinkMemo(n int) { p.c.ShrinkMemo(n) }

// StoreStats are the persistent artifact store's counters (internal/store):
// disk-tier hits and misses, records written, corrupt records skipped, and
// log size. All-zero when no cache directory is attached. Like MemoStats
// they describe work saved, never results.
type StoreStats = store.Stats

// StoreStats reports the program's artifact-store counters (zero value
// when CompileOptions.CacheDir / Options.CacheDir was never set).
func (p *Program) StoreStats() StoreStats { return p.c.StoreStats() }

// Evaluate runs one scheme on the program and machine.
func Evaluate(p *Program, m *Machine, s Scheme, opts Options) (*Result, error) {
	return EvaluateCtx(context.Background(), p, m, s, opts)
}

// EvaluateCtx is Evaluate under a context: cancellation stops the
// partitioning pipeline between stages. With Options.Fallback set, a
// failing or invalid scheme degrades along the GDP→ProfileMax→Naive chain
// exactly as in the matrix runners, recording the substitution in
// Result.Degraded.
func EvaluateCtx(ctx context.Context, p *Program, m *Machine, s Scheme, opts Options) (*Result, error) {
	return run(m, func() (*Result, error) {
		if opts.Fallback {
			return eval.RunSchemeFallbackCtx(ctx, p.c, m, s, opts)
		}
		return eval.RunSchemeCtx(ctx, p.c, m, s, opts)
	})
}

// EvaluateAll runs all four Table 1 schemes.
func EvaluateAll(p *Program, m *Machine) (*Comparison, error) {
	return EvaluateAllWithOptions(p, m, Options{})
}

// EvaluateAllWithOptions runs all four schemes with explicit options.
func EvaluateAllWithOptions(p *Program, m *Machine, opts Options) (*Comparison, error) {
	return EvaluateAllCtx(context.Background(), p, m, opts)
}

// EvaluateAllCtx runs all four schemes under a context.
func EvaluateAllCtx(ctx context.Context, p *Program, m *Machine, opts Options) (*Comparison, error) {
	return run(m, func() (*Comparison, error) { return eval.RunAllSchemesCtx(ctx, p.c, m, opts) })
}

// EvaluateDataMap evaluates an externally chosen object mapping (lock the
// memory operations, run the computation partitioner, schedule).
func EvaluateDataMap(p *Program, m *Machine, dm DataMap, opts Options) (*Result, error) {
	return run(m, func() (*Result, error) {
		if err := dm.Validate(p.c.Mod, m.NumClusters()); err != nil {
			return nil, err
		}
		return eval.RunWithDataMap(p.c, m, dm, opts)
	})
}

// ExhaustiveSearch enumerates every data-object mapping on the machine's k
// clusters (the paper's Figure 9; k^objects points, encoded as base-k
// positional masks). maxObjects guards against blowup: at most 2^maxObjects
// mapping points (0 means 14, i.e. at most 16384 mappings).
func ExhaustiveSearch(p *Program, m *Machine, opts Options, maxObjects int) (*ExhaustiveResult, error) {
	return ExhaustiveSearchCtx(context.Background(), p, m, opts, maxObjects)
}

// ExhaustiveSearchCtx is ExhaustiveSearch under a context.
func ExhaustiveSearchCtx(ctx context.Context, p *Program, m *Machine, opts Options, maxObjects int) (*ExhaustiveResult, error) {
	return run(m, func() (*ExhaustiveResult, error) { return eval.ExhaustiveCtx(ctx, p.c, m, opts, maxObjects) })
}

// BestMappingResult is the branch-and-bound search outcome re-exported
// from the eval package.
type BestMappingResult = eval.BestResult

// BestMapping finds the optimal data-object mapping on the machine's k
// clusters by branch and bound over object-assignment prefixes, without
// enumerating all k^n points. It returns the same optimum an exhaustive
// sweep would find, on programs too large to sweep (maxObjects 0 means 24).
func BestMapping(p *Program, m *Machine, opts Options, maxObjects int) (*BestMappingResult, error) {
	return BestMappingCtx(context.Background(), p, m, opts, maxObjects)
}

// BestMappingCtx is BestMapping under a context.
func BestMappingCtx(ctx context.Context, p *Program, m *Machine, opts Options, maxObjects int) (*BestMappingResult, error) {
	return run(m, func() (*BestMappingResult, error) { return eval.BestMappingCtx(ctx, p.c, m, opts, maxObjects) })
}

// RelativePerf returns scheme performance relative to the unified-memory
// bound (1.0 = matches unified; the paper's Figures 7/8 metric).
func RelativePerf(unified, scheme *Result) float64 {
	return eval.RelativePerf(unified, scheme)
}

// PartitionData runs only the first GDP pass and returns the data map (with
// merge-group diagnostics) without partitioning computation.
func PartitionData(p *Program, clusters int, opts gdp.Options) (*gdp.Result, error) {
	return gdp.PartitionData(p.c.Mod, p.c.Prof, clusters, opts)
}

// BenchmarkNames lists the bundled benchmark programs (synthetic stand-ins
// for the paper's Mediabench + DSP suite).
func BenchmarkNames() []string { return bench.Names() }

// LoadBenchmark compiles one bundled benchmark by name.
func LoadBenchmark(name string) (*Program, error) {
	b, err := bench.Get(name)
	if err != nil {
		return nil, err
	}
	return Compile(b.Name, b.Source)
}

// BenchmarkSource returns the mclang source of a bundled benchmark.
func BenchmarkSource(name string) (string, error) {
	b, err := bench.Get(name)
	if err != nil {
		return "", err
	}
	return b.Source, nil
}

// ParseOnly parses and type-checks mclang source without lowering, useful
// for editor-style diagnostics.
func ParseOnly(source string) error {
	prog, err := mclang.Parse(source)
	if err != nil {
		return err
	}
	_, err = mclang.Analyze(prog)
	return err
}

// FormatSchedule renders the VLIW schedule (one row per cycle, one column
// per cluster) of one function under a scheme result: the block schedules
// whose lengths the result's cycle count sums.
func FormatSchedule(p *Program, m *Machine, r *Result, funcName string) (string, error) {
	f := p.c.Mod.Func(funcName)
	if f == nil {
		return "", fmt.Errorf("mcpart: no function %q", funcName)
	}
	asg, ok := r.Assign[f]
	if !ok {
		return "", fmt.Errorf("mcpart: result has no assignment for %q", funcName)
	}
	if err := sched.CheckAssignable(f, asg, m); err != nil {
		return "", fmt.Errorf("mcpart: %w", err)
	}
	return sched.FormatFunc(f, asg, m, p.c.Prof), nil
}

// Assignment re-exports the computation partitioner's lock type for
// advanced clients driving rhop directly.
type Locks = rhop.Locks
