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
	"flag"
	"fmt"
	"io"
	"os"

	"mcpart"
	"mcpart/internal/cli"
	"mcpart/internal/defaults"
	"mcpart/internal/eval"
	"mcpart/internal/parallel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdpexplore:", err)
		os.Exit(1)
	}
}

// config is gdpexplore's flag surface: the shared cli table plus the
// explorer's own flags.
type config struct {
	cli.Flags
	bench         string
	maxObj        int
	csv, bestOnly bool
}

func newFlagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("gdpexplore", flag.ContinueOnError)
	fs.StringVar(&c.bench, "bench", "rawcaudio", "benchmark to explore")
	fs.IntVar(&c.maxObj, "maxobjects", defaults.DefaultMaxObjects, "refuse programs with more data objects")
	fs.BoolVar(&c.csv, "csv", false, "emit CSV instead of a text scatter")
	fs.BoolVar(&c.bestOnly, "best", false, "find only the optimal mapping by branch and bound (no full sweep; default object cap rises to the -best limit)")
	c.Machine = "paper2"
	c.Register(fs, cli.Workers|cli.Machine)
	return fs
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
	var c config
	fs := newFlagSet(&c)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tool, err := c.Start()
	if err != nil {
		return err
	}
	defer func() { err = tool.Finish(out, err) }()

	src, err := mcpart.BenchmarkSource(c.bench)
	if err != nil {
		return err
	}
	p, err := mcpart.CompileCtx(tool.Ctx, c.bench, src, mcpart.CompileOptions{CacheDir: c.CacheDir, CacheMaxBytes: c.CacheMaxBytes})
	if err != nil {
		return err
	}
	m, err := mcpart.MachinePreset(c.Machine, c.Latency)
	if err != nil {
		return err
	}
	opts := mcpart.Options{Workers: c.Jobs, Validate: c.Validate, CacheDir: c.CacheDir, CacheMaxBytes: c.CacheMaxBytes, Observer: tool.Observer}
	if c.bestOnly {
		// -best raises the object cap to the branch-and-bound default
		// unless the user pinned -maxobjects explicitly.
		capObj := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "maxobjects" {
				capObj = c.maxObj
			}
		})
		br, err := mcpart.BestMappingCtx(tool.Ctx, p, m, opts, capObj)
		if err != nil {
			return err
		}
		c.writeCacheStats(tool, p)
		fmt.Fprintf(out, "%s: optimal mapping mask %b (%#x)\n", c.bench, br.Mask, br.Mask)
		fmt.Fprintf(out, "cycles %d  moves %d\n", br.Cycles, br.Moves)
		fmt.Fprintf(out, "search: %d nodes visited, %d subtrees pruned\n", br.NodesVisited, br.NodesPruned)
		return nil
	}
	ex, err := mcpart.ExhaustiveSearchCtx(tool.Ctx, p, m, opts, c.maxObj)
	if err != nil {
		return err
	}
	c.writeCacheStats(tool, p)

	if c.csv {
		fmt.Fprintln(out, "mask,cycles,perf_vs_worst,imbalance,is_gdp,is_pmax")
		for _, pt := range ex.Points {
			fmt.Fprintf(out, "%d,%d,%.6f,%.6f,%v,%v\n",
				pt.Mask, pt.Cycles, pt.PerfVsWorst, pt.Imbalance,
				pt.Mask == ex.GDPMask, pt.Mask == ex.PMaxMask)
		}
		return nil
	}
	fmt.Fprint(out, eval.FormatFigure9(c.bench, ex))
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

// writeCacheStats prints the -cachestats lines after a successful search,
// in either mode. They go to stderr, so CSV output stays clean.
func (c *config) writeCacheStats(tool *cli.Run, p *mcpart.Program) {
	if !c.CacheStats {
		return
	}
	s := p.MemoStats()
	fmt.Fprintf(os.Stderr, "memo cache: hits %d  misses %d  rate %.1f%%  promotions %d  entries %d  evictions %d\n",
		s.Hits, s.Misses, 100*s.HitRate(), s.Promotions, s.Entries, s.Evictions)
	tool.WriteStoreStats(os.Stderr, "artifact store")
}
