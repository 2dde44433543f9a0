package eval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"mcpart/internal/machine"
	"mcpart/internal/obs"
	"mcpart/internal/parallel"
)

// BenchResult holds all four schemes' results for one benchmark on one
// machine configuration.
type BenchResult struct {
	Name    string
	Unified *Result
	GDP     *Result
	PMax    *Result
	Naive   *Result
}

// schemeRunners lists the Table 1 schemes in their canonical order, the
// order in which RunMatrixCtx runs one benchmark's schemes.
var schemeRunners = []struct {
	scheme Scheme
	run    func(*Compiled, *machine.Config, Options) (*Result, error)
	store  func(*BenchResult, *Result)
}{
	{SchemeUnified, RunUnified, func(br *BenchResult, r *Result) { br.Unified = r }},
	{SchemeGDP, RunGDP, func(br *BenchResult, r *Result) { br.GDP = r }},
	{SchemeProfileMax, RunProfileMax, func(br *BenchResult, r *Result) { br.PMax = r }},
	{SchemeNaive, RunNaive, func(br *BenchResult, r *Result) { br.Naive = r }},
}

// runScheme dispatches one Table 1 scheme by name.
func runScheme(c *Compiled, cfg *machine.Config, s Scheme, opts Options) (*Result, error) {
	for _, sr := range schemeRunners {
		if sr.scheme == s {
			return sr.run(c, cfg, opts)
		}
	}
	return nil, fmt.Errorf("eval: unknown scheme %q", s)
}

// RunSchemeCtx runs one Table 1 scheme by name under a cancellation context: the run aborts
// between pipeline steps once ctx is done, and any interpreter work
// respects the deadline.
func RunSchemeCtx(ctx context.Context, c *Compiled, cfg *machine.Config, s Scheme, opts Options) (*Result, error) {
	opts.ctx = obs.With(ctx, opts.Observer)
	return runScheme(c, cfg, s, opts)
}

// RunSchemeFallbackCtx is RunSchemeCtx with the matrix runners' graceful
// degradation applied to the single cell: under Options.Fallback a failing
// or invalid scheme degrades along the GDP→ProfileMax→Naive chain with the
// substitution recorded in Result.Degraded, and panics inside the pipeline
// surface as *parallel.PanicError instead of crashing. This is the entry
// point for request-at-a-time callers (the gdpd daemon) that want matrix
// semantics without a matrix.
func RunSchemeFallbackCtx(ctx context.Context, c *Compiled, cfg *machine.Config, s Scheme, opts Options) (*Result, error) {
	opts.ctx = obs.With(ctx, opts.Observer)
	return runCell(c, cfg, s, opts)
}

// CellError attributes a matrix or exhaustive-search failure to the exact
// work cell — (benchmark, scheme) and, for the Figure 9 sweep, the data
// mapping mask — so a failure deep in a parallel fan-out stays debuggable.
type CellError struct {
	Bench  string
	Scheme Scheme
	// Mask is the exhaustive data-mapping mask; meaningful only when
	// HasMask is set.
	Mask    uint64
	HasMask bool
	Err     error
}

func (e *CellError) Error() string {
	if e.HasMask {
		return fmt.Sprintf("%s %s mask %#x: %v", e.Bench, strings.ToLower(string(e.Scheme)), e.Mask, e.Err)
	}
	return fmt.Sprintf("%s %s: %v", e.Bench, strings.ToLower(string(e.Scheme)), e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// fallbackOf is the graceful degradation chain of Options.Fallback:
// GDP falls back to Profile Max, Profile Max to Naïve. Naïve and Unified
// have no fallback — they are the floor.
var fallbackOf = map[Scheme]Scheme{
	SchemeGDP:        SchemeProfileMax,
	SchemeProfileMax: SchemeNaive,
}

// attemptScheme runs one scheme with panic containment: a panic inside the
// partitioners or the scheduler surfaces as a *parallel.PanicError labeled
// with the scheme, so a fallback chain (or the pool) can keep going.
func attemptScheme(c *Compiled, cfg *machine.Config, s Scheme, opts Options) (r *Result, err error) {
	defer func() {
		if pe := parallel.Recovered(string(s), -1, recover()); pe != nil {
			r, err = nil, pe
		}
	}()
	return runScheme(c, cfg, s, opts)
}

// runCell evaluates one (benchmark, scheme) matrix cell. Under
// Options.Fallback a failing or invalid scheme degrades along fallbackOf,
// recording the original scheme and triggering error in Result.Degraded;
// cancellation is never treated as a scheme failure.
func runCell(c *Compiled, cfg *machine.Config, s Scheme, opts Options) (*Result, error) {
	r, err := attemptScheme(c, cfg, s, opts)
	if err == nil || !opts.Fallback {
		return r, err
	}
	cause := err
	for fb, ok := fallbackOf[s]; ok; fb, ok = fallbackOf[fb] {
		if cerr := opts.ctxErr(); cerr != nil {
			return nil, cause
		}
		if r, ferr := attemptScheme(c, cfg, fb, opts); ferr == nil {
			r.Degraded = &Degradation{From: s, Err: cause}
			opts.Observer.Counter("eval_degradations").Add(1)
			return r, nil
		}
	}
	return nil, cause
}

// RunAllSchemes evaluates the four Table 1 schemes on one prepared
// benchmark, in schemeRunners order.
func RunAllSchemes(c *Compiled, cfg *machine.Config, opts Options) (*BenchResult, error) {
	return RunAllSchemesCtx(context.Background(), c, cfg, opts)
}

// RunAllSchemesCtx is RunAllSchemes with a cancellation context.
func RunAllSchemesCtx(ctx context.Context, c *Compiled, cfg *machine.Config, opts Options) (*BenchResult, error) {
	brs, err := RunMatrixCtx(ctx, []*Compiled{c}, cfg, opts)
	if err != nil {
		return nil, err
	}
	return brs[0], nil
}

// RunMatrixCtx evaluates the full (benchmark × scheme) matrix: every
// Table 1 scheme on every prepared benchmark. The benchmarks fan across
// opts.Workers, one task each; a task runs the four schemes in
// schemeRunners order, so the schemes of one Compiled meet its shared memo
// entries in one fixed order and every counter is the same at any worker
// count. Results come back in benchmark order, identical to the serial
// nested loop. Once ctx is done no new scheme starts, in-flight schemes
// abort between pipeline steps, and the partial results are discarded;
// the error of the lowest (benchmark, scheme) cell in serial order is
// returned.
func RunMatrixCtx(ctx context.Context, cs []*Compiled, cfg *machine.Config, opts Options) ([]*BenchResult, error) {
	ctx = obs.With(ctx, opts.Observer)
	opts.ctx = ctx
	mo := opts.Observer.Named("matrix")
	// Register the degradation counter up front so a clean sweep reports
	// an explicit eval_degradations 0 instead of omitting the metric.
	opts.Observer.Counter("eval_degradations")
	for _, c := range cs {
		defer c.lease()()
	}
	return parallel.MapStage(ctx, "matrix", len(cs), opts.Workers,
		func(_ context.Context, i int) (*BenchResult, error) {
			c := cs[i]
			copts := opts
			copts.Observer = mo.Named(c.Name)
			br := &BenchResult{Name: c.Name}
			for _, sr := range schemeRunners {
				if err := copts.ctxErr(); err != nil {
					return nil, err
				}
				copts.Observer.Counter("eval_cells").Add(1)
				r, err := runCell(c, cfg, sr.scheme, copts)
				if err != nil {
					return nil, &CellError{Bench: c.Name, Scheme: sr.scheme, Err: err}
				}
				sr.store(br, r)
			}
			return br, nil
		})
}

// BenchSpec names one benchmark source for PrepareAllOpts.
type BenchSpec struct {
	Name string
	Src  string
}

// PrepareAllOpts compiles, analyzes and profiles every benchmark, fanning
// the (independent) front-end pipelines across workers (the usual
// sentinel: <= 0 means runtime.GOMAXPROCS(0)). Results come back in spec
// order. A ctx deadline also bounds each benchmark's profiling run; opts
// supplies the profiling knobs (the budgets and the disk-cache knobs; see
// PrepareOpts).
func PrepareAllOpts(ctx context.Context, specs []BenchSpec, workers int, opts Options) ([]*Compiled, error) {
	return parallel.MapStage(ctx, "prepare", len(specs), workers,
		func(ctx context.Context, i int) (*Compiled, error) {
			return PrepareOpts(ctx, specs[i].Name, specs[i].Src, opts)
		})
}

// GeoMean returns the geometric mean of xs (which must be positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// FormatTable1 renders the scheme summary of Table 1.
func FormatTable1() string {
	var b strings.Builder
	w := func(cols ...string) {
		fmt.Fprintf(&b, "%-14s | %-34s | %-34s | %s\n", cols[0], cols[1], cols[2], cols[3])
	}
	w("Algorithm", "Object Partitioner", "Object Assignment", "Computation Partitioner")
	b.WriteString(strings.Repeat("-", 110) + "\n")
	w("GDP", "Global Data Partitioning", "graph partition of program DFG", "RHOP (object-cognizant)")
	w("Profile Max", "RHOP (unified-memory pre-pass)", "greedy, dynamic frequency order", "RHOP (object-cognizant)")
	w("Naive", "none (post-computation placement)", "max-access cluster, moves inserted", "RHOP (unified assumption)")
	w("Unified Memory", "n/a (single multiported memory)", "n/a", "RHOP")
	return b.String()
}

// FormatPerfFigure renders a Figure 7/8-style table: per benchmark the GDP
// and Profile Max performance relative to unified memory, plus the suite
// averages and the Naïve average, for the given move latency label.
func FormatPerfFigure(title string, results []*BenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %10s %12s %10s\n", "benchmark", "GDP", "ProfileMax", "Naive")
	b.WriteString(strings.Repeat("-", 48) + "\n")
	var gs, ps, ns []float64
	for _, r := range results {
		g := RelativePerf(r.Unified, r.GDP)
		p := RelativePerf(r.Unified, r.PMax)
		n := RelativePerf(r.Unified, r.Naive)
		gs, ps, ns = append(gs, g), append(ps, p), append(ns, n)
		fmt.Fprintf(&b, "%-12s %9.1f%% %11.1f%% %9.1f%%\n", r.Name, 100*g, 100*p, 100*n)
	}
	b.WriteString(strings.Repeat("-", 48) + "\n")
	fmt.Fprintf(&b, "%-12s %9.1f%% %11.1f%% %9.1f%%\n", "average",
		100*GeoMean(gs), 100*GeoMean(ps), 100*GeoMean(ns))
	return b.String()
}

// FormatFigure2 renders the Figure 2 table: percent cycle increase of the
// Naïve placement over unified memory at several move latencies. results
// maps latency -> per-benchmark results (same benchmark order).
func FormatFigure2(latencies []int, results map[int][]*BenchResult) string {
	var b strings.Builder
	b.WriteString("Figure 2: cycle increase of naive data placement vs unified memory\n")
	fmt.Fprintf(&b, "%-12s", "benchmark")
	for _, lat := range latencies {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("lat=%d", lat))
	}
	b.WriteString("\n" + strings.Repeat("-", 12+10*len(latencies)) + "\n")
	if len(latencies) == 0 {
		return b.String()
	}
	names := results[latencies[0]]
	for i := range names {
		fmt.Fprintf(&b, "%-12s", names[i].Name)
		for _, lat := range latencies {
			r := results[lat][i]
			fmt.Fprintf(&b, " %8.1f%%", CycleIncreasePct(r.Unified, r.Naive))
		}
		b.WriteString("\n")
	}
	// Averages.
	fmt.Fprintf(&b, "%-12s", "average")
	for _, lat := range latencies {
		var sum float64
		for _, r := range results[lat] {
			sum += CycleIncreasePct(r.Unified, r.Naive)
		}
		fmt.Fprintf(&b, " %8.1f%%", sum/float64(len(results[lat])))
	}
	b.WriteString("\n")
	return b.String()
}

// FormatFigure10 renders the dynamic intercluster move increase table.
func FormatFigure10(results []*BenchResult) string {
	var b strings.Builder
	b.WriteString("Figure 10: increase in dynamic intercluster moves vs unified (5-cycle latency)\n")
	fmt.Fprintf(&b, "%-12s %10s %12s\n", "benchmark", "GDP", "ProfileMax")
	b.WriteString(strings.Repeat("-", 38) + "\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %9.1f%% %11.1f%%\n", r.Name,
			MoveIncreasePct(r.Unified, r.GDP), MoveIncreasePct(r.Unified, r.PMax))
	}
	return b.String()
}

// FormatFigure9 renders the exhaustive search as a text scatter: one row
// per mapping, sorted by performance, with balance shading and scheme
// markers.
func FormatFigure9(name string, ex *ExhaustiveResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 (%s): exhaustive data mappings (%d points)\n", name, len(ex.Points))
	fmt.Fprintf(&b, "best %d cycles, worst %d cycles (%.1f%% spread)\n",
		ex.Best, ex.Worst, 100*float64(ex.Worst-ex.Best)/float64(ex.Worst))
	pts := append([]MappingPoint(nil), ex.Points...)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].PerfVsWorst != pts[j].PerfVsWorst {
			return pts[i].PerfVsWorst > pts[j].PerfVsWorst
		}
		return pts[i].Mask < pts[j].Mask
	})
	fmt.Fprintf(&b, "%-10s %10s %10s  %s\n", "mask", "perf", "imbalance", "marks")
	for _, p := range pts {
		marks := ""
		if p.Mask == ex.GDPMask {
			marks += " <GDP>"
		}
		if p.Mask == ex.PMaxMask {
			marks += " <PMax>"
		}
		shade := strings.Repeat("#", 1+int(p.Imbalance*9))
		fmt.Fprintf(&b, "%010b %9.3fx %9.2f  %-10s%s\n", p.Mask, p.PerfVsWorst, p.Imbalance, shade, marks)
	}
	return b.String()
}

// FormatCompileTime renders the §4.5 comparison: detailed-partitioner runs
// and wall time per scheme.
func FormatCompileTime(results []*BenchResult) string {
	var b strings.Builder
	b.WriteString("Section 4.5: detailed computation-partitioner cost\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %14s %14s\n", "benchmark",
		"GDP runs/ms", "PMax runs/ms", "Naive runs/ms", "Unified runs/ms")
	b.WriteString(strings.Repeat("-", 74) + "\n")
	cell := func(r *Result) string {
		return fmt.Sprintf("%d/%.1f", r.DetailedRuns, float64(r.PartitionTime.Microseconds())/1000)
	}
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %14s %14s %14s %14s\n", r.Name,
			cell(r.GDP), cell(r.PMax), cell(r.Naive), cell(r.Unified))
	}
	return b.String()
}
