// Command gdpexplore reproduces the paper's Figure 9 study: an exhaustive
// search over all data-object mappings of a small benchmark, reporting each
// mapping's performance (normalized to the worst mapping) and data-size
// balance, with the GDP and Profile Max choices marked. Output is a text
// scatter by default, or CSV for external plotting.
//
// Usage:
//
//	gdpexplore -bench rawcaudio -latency 5
//	gdpexplore -bench rawdaudio -latency 5 -csv > rawdaudio.csv
//	gdpexplore -bench rawcaudio -j 8       # 8 search workers
//
// -j N bounds the worker pool the exhaustive search fans mapping masks
// across; 0 (the default) means runtime.GOMAXPROCS(0). The output is
// byte-identical for every -j value.
//
// Performance introspection:
//
//	gdpexplore -bench rawcaudio -cpuprofile cpu.pprof -memprofile mem.pprof
//	gdpexplore -bench rawcaudio -cachestats  # memoization hit rates
//
// The exhaustive sweep leans hard on the memoization cache (every mask
// shares per-function lock signatures with many others) and on
// complement-symmetry pruning; -cachestats reports what the cache did
// (to stderr, so CSV output stays clean). The sweep itself runs as a
// Gray-code delta enumeration over per-function cost tables (DESIGN.md
// §13); -validate re-checks every table entry with the independent
// validator once and every point's cycle accounting against the checked
// entries, leaving the output unchanged.
//
// For programs with too many objects to sweep, -best runs a
// branch-and-bound search that returns only the optimal mapping (the
// same optimum the sweep's Best reports), raising the default object
// cap from 14 to 24 unless -maxobjects is given explicitly:
//
//	gdpexplore -bench rawcaudio -best
//
// Observability (DESIGN.md §10): -metrics prints the sweep's metric
// summary (eval_masks, memo hits, FM moves, ...), -trace FILE the
// deterministic span trace as sorted JSON lines, -prom FILE
// the metrics in Prometheus text format. Traces are byte-identical at
// every -j; pin -j 1 to make the memo hit counts in -metrics
// reproducible too.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mcpart"
	"mcpart/internal/defaults"
	"mcpart/internal/eval"
	"mcpart/internal/obs"
	"mcpart/internal/parallel"
	"mcpart/internal/profutil"
	"mcpart/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdpexplore:", err)
		os.Exit(1)
	}
}

// run executes the explorer against args, writing to out. Panics escaping
// the search are contained into errors: the tool exits with a one-line
// diagnostic, never a crash.
func run(args []string, out io.Writer) (err error) {
	defer func() {
		if pe := parallel.Recovered("gdpexplore", -1, recover()); pe != nil {
			err = pe
		}
	}()
	fs := flag.NewFlagSet("gdpexplore", flag.ContinueOnError)
	var (
		benchN   = fs.String("bench", "rawcaudio", "benchmark to explore")
		machineN = fs.String("machine", "paper2", "machine preset: paper2 | four | eight | hetero2 | ring4 | ring8 | mesh4 | mesh8 | numa4")
		latency  = fs.Int("latency", 5, "intercluster move latency")
		maxObj   = fs.Int("maxobjects", defaults.DefaultMaxObjects, "refuse programs with more data objects")
		csv      = fs.Bool("csv", false, "emit CSV instead of a text scatter")
		jobs     = fs.Int("j", 0, "search worker count (0 = GOMAXPROCS)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		stats    = fs.Bool("cachestats", false, "print memoization cache statistics to stderr")
		bestOnly = fs.Bool("best", false, "find only the optimal mapping by branch and bound (no full sweep; default object cap rises to the -best limit)")
		validate = fs.Bool("validate", false, "re-check every cost-table entry with the independent schedule validator and every mapping's cycle accounting against the checked entries")
		timeout  = fs.Duration("timeout", 0, "abort the search after this duration (0 = no limit)")
		traceF   = fs.String("trace", "", "write the pipeline span trace to this file as sorted JSON lines")
		metrics  = fs.Bool("metrics", false, "print the metric registry summary after the output")
		promF    = fs.String("prom", "", "write the metrics in Prometheus text format to this file")
		cacheDir = fs.String("cachedir", "", "persistent artifact-cache directory: partition/schedule/profile results survive process restarts (empty = disabled)")
		cacheMax = fs.Int64("cachemaxbytes", 0, "artifact-cache size bound in bytes (0 = 1 GiB default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheDir != "" {
		if _, err := store.OpenShared(*cacheDir, store.Options{MaxBytes: *cacheMax}); err != nil {
			return fmt.Errorf("-cachedir: %w", err)
		}
		defer func() {
			if ferr := store.FlushShared(*cacheDir); err == nil {
				err = ferr
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	sinks := &obs.ToolSinks{TracePath: *traceF, Summary: *metrics, PromPath: *promF}
	ctx = mcpart.ObserveContext(ctx, sinks.Observer())
	defer func() {
		if ferr := sinks.Flush(out); err == nil {
			err = ferr
		}
	}()

	prof, err := profutil.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if serr := prof.Stop(); err == nil {
			err = serr
		}
	}()

	src, err := mcpart.BenchmarkSource(*benchN)
	if err != nil {
		return err
	}
	p, err := mcpart.CompileCtx(ctx, *benchN, src, mcpart.CompileOptions{CacheDir: *cacheDir, CacheMaxBytes: *cacheMax})
	if err != nil {
		return err
	}
	m, err := mcpart.MachinePreset(*machineN, *latency)
	if err != nil {
		return err
	}
	opts := mcpart.Options{Workers: *jobs, Validate: *validate, CacheDir: *cacheDir, CacheMaxBytes: *cacheMax, Observer: sinks.Observer()}
	if *bestOnly {
		// -best raises the object cap to the branch-and-bound default
		// unless the user pinned -maxobjects explicitly.
		capObj := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "maxobjects" {
				capObj = *maxObj
			}
		})
		br, err := mcpart.BestMappingCtx(ctx, p, m, opts, capObj)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: optimal mapping mask %b (%#x)\n", *benchN, br.Mask, br.Mask)
		fmt.Fprintf(out, "cycles %d  moves %d\n", br.Cycles, br.Moves)
		fmt.Fprintf(out, "search: %d nodes visited, %d subtrees pruned\n", br.NodesVisited, br.NodesPruned)
		return nil
	}
	ex, err := mcpart.ExhaustiveSearchCtx(ctx, p, m, opts, *maxObj)
	if err != nil {
		return err
	}
	if *stats {
		s := p.MemoStats()
		total := s.Hits + s.Misses
		rate := 0.0
		if total > 0 {
			rate = float64(s.Hits) / float64(total)
		}
		fmt.Fprintf(os.Stderr, "memo cache: hits %d  misses %d  rate %.1f%%  promotions %d  entries %d  evictions %d\n",
			s.Hits, s.Misses, 100*rate, s.Promotions, s.Entries, s.Evictions)
		if *cacheDir != "" {
			st := p.StoreStats()
			fmt.Fprintf(os.Stderr, "artifact store: hits %d  misses %d  rate %.1f%%  writes %d  corrupt %d  bytes %d\n",
				st.Hits, st.Misses, 100*st.HitRate(), st.Writes, st.CorruptSkipped, st.LogBytes)
		}
	}

	if *csv {
		fmt.Fprintln(out, "mask,cycles,perf_vs_worst,imbalance,is_gdp,is_pmax")
		for _, pt := range ex.Points {
			fmt.Fprintf(out, "%d,%d,%.6f,%.6f,%v,%v\n",
				pt.Mask, pt.Cycles, pt.PerfVsWorst, pt.Imbalance,
				pt.Mask == ex.GDPMask, pt.Mask == ex.PMaxMask)
		}
		return nil
	}
	fmt.Fprint(out, eval.FormatFigure9(*benchN, ex))
	if g := ex.Find(ex.GDPMask); g != nil {
		fmt.Fprintf(out, "\nGDP chose mask %b: %.3fx of worst, imbalance %.2f\n",
			g.Mask, g.PerfVsWorst, g.Imbalance)
	}
	if pm := ex.Find(ex.PMaxMask); pm != nil {
		fmt.Fprintf(out, "PMax chose mask %b: %.3fx of worst, imbalance %.2f\n",
			pm.Mask, pm.PerfVsWorst, pm.Imbalance)
	}
	best := float64(ex.Worst) / float64(ex.Best)
	fmt.Fprintf(out, "best achievable: %.3fx of worst\n", best)
	return nil
}
