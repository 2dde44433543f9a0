// Command gdpbench regenerates the paper's evaluation: every table and
// figure of Chu & Mahlke (CGO 2006) over the bundled benchmark suite.
//
// Usage:
//
//	gdpbench -table 1          # Table 1: scheme summary
//	gdpbench -figure 2         # Fig 2: naive placement cycle increase
//	gdpbench -figure 7         # Fig 7: GDP/PMax vs unified, 1-cycle moves
//	gdpbench -figure 8a        # Fig 8a: 5-cycle moves
//	gdpbench -figure 8b        # Fig 8b: 10-cycle moves
//	gdpbench -figure 9         # Fig 9: exhaustive search (rawcaudio, rawdaudio)
//	gdpbench -figure 10        # Fig 10: intercluster move increase
//	gdpbench -compiletime      # §4.5: detailed-partitioner runs and times
//	gdpbench -all              # everything
//	gdpbench -json             # machine-readable per-benchmark results
//	gdpbench -svg DIR          # render every figure as an SVG file
//	gdpbench -all -j 8         # fan the evaluation across 8 workers
//
// -j N bounds the worker pool that compiles benchmarks and evaluates
// them, one benchmark per task; 0 (the default) means
// runtime.GOMAXPROCS(0). Every table, figure and metric is byte-identical
// for every -j value — parallelism changes only wall time.
//
// Performance introspection:
//
//	gdpbench -all -cpuprofile cpu.pprof -memprofile mem.pprof
//	gdpbench -all -cachestats  # per-benchmark memoization hit rates
//
// -cachestats appends, after the selected output, one line per compiled
// benchmark with the memoization cache's hit/miss/entry counters (the
// internal/memo cache that deduplicates per-function partition and
// schedule computations across schemes).
//
// Persistent caching:
//
//	gdpbench -all -cachedir .gdpcache              # warm restarts
//	gdpbench -all -cachedir .gdpcache -cachestats  # plus tier-split hit rates
//
// -cachedir layers the content-addressed artifact store (internal/store,
// DESIGN.md §12) under the memoization cache: partition, lock, schedule,
// and profile results persist across process restarts, keyed by content
// hashes of the module, machine, and options. The cache changes wall time
// only — every table and figure is byte-identical with a cold, warm,
// corrupt, or absent cache. -cachemaxbytes bounds the log (default 1 GiB);
// a full log sheds new writes but keeps serving reads.
//
// Observability (DESIGN.md §10):
//
//	gdpbench -all -metrics        # metric summary (totals + per-bench/scheme)
//	gdpbench -all -trace t.jsonl  # span trace, byte-identical at every -j
//	gdpbench -all -prom m.prom    # metrics in Prometheus text format
//
// Traces and the -metrics output are fully deterministic, byte for byte
// the same at every -j.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"mcpart/internal/bench"
	"mcpart/internal/cli"
	"mcpart/internal/eval"
	"mcpart/internal/machine"
	"mcpart/internal/parallel"
	"mcpart/internal/plot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdpbench:", err)
		os.Exit(1)
	}
}

// config is gdpbench's flag surface: the shared cli table plus the
// harness's own selection flags.
type config struct {
	cli.Flags
	table, figure, filter, svgDir       string
	compileTime, topology, all, jsonOut bool
}

func newFlagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("gdpbench", flag.ContinueOnError)
	fs.StringVar(&c.table, "table", "", "table to regenerate (1)")
	fs.StringVar(&c.figure, "figure", "", "figure to regenerate (2, 7, 8a, 8b, 9, 10)")
	fs.BoolVar(&c.compileTime, "compiletime", false, "regenerate §4.5 compile-time comparison")
	fs.BoolVar(&c.topology, "topology", false, "emit the cluster-count x topology comparison (GDP vs unified on every machine preset)")
	fs.BoolVar(&c.all, "all", false, "regenerate every table and figure")
	fs.StringVar(&c.filter, "run", "", "only benchmarks whose name contains this substring")
	fs.BoolVar(&c.jsonOut, "json", false, "emit machine-readable JSON (per-benchmark, all latencies) instead of text")
	fs.StringVar(&c.svgDir, "svg", "", "write every figure as an SVG file into this directory")
	c.Register(fs, cli.Workers)
	return fs
}

// run executes the harness against args, writing to out. A panic escaping
// the pipeline is contained into an error so the tool always exits with a
// one-line diagnostic, never a crash.
func run(args []string, out io.Writer) (err error) {
	defer func() {
		if pe := parallel.Recovered("gdpbench", -1, recover()); pe != nil {
			err = pe
		}
	}()
	var c config
	if err := newFlagSet(&c).Parse(args); err != nil {
		return err
	}
	tool, err := c.Start()
	if err != nil {
		return err
	}
	h := &harness{config: &c, Run: tool, cache: map[string]*eval.Compiled{}, out: out}
	defer func() {
		// The cache statistics follow the metrics summary Finish prints.
		if err = tool.Finish(out, err); err == nil && c.CacheStats {
			h.emitCacheStats()
		}
	}()
	return h.emit()
}

// emit runs whatever output the flags selected. -topology is not part of
// -all: the preset sweep multiplies the whole matrix by the machine count,
// and -all's output is pinned by determinism tests.
func (h *harness) emit() error {
	if h.jsonOut {
		return h.emitJSON()
	}
	if h.svgDir != "" {
		return h.emitSVGs(h.svgDir)
	}
	perf := func(fig string, lat int) func() error {
		return func() error { return h.perfFigure(perfTitle(fig, lat), lat) }
	}
	sections := []struct {
		on  bool
		run func() error
	}{
		{h.all || h.table == "1", func() error { fmt.Fprintln(h.out, eval.FormatTable1()); return nil }},
		{h.all || h.figure == "2", h.figure2},
		{h.all || h.figure == "7", perf("7", 1)},
		{h.all || h.figure == "8a", perf("8a", 5)},
		{h.all || h.figure == "8b", perf("8b", 10)},
		{h.all || h.figure == "9", h.figure9},
		{h.all || h.figure == "10", h.figure10},
		{h.all || h.compileTime, h.compileTimeTable},
		{h.topology, h.topologyFigure},
	}
	any := false
	for _, sec := range sections {
		if sec.on {
			if err := sec.run(); err != nil {
				return err
			}
			any = true
		}
	}
	if !any {
		return fmt.Errorf("nothing selected; use -all, -table, -figure, -topology, or -compiletime")
	}
	return nil
}

type harness struct {
	*config
	*cli.Run
	cache map[string]*eval.Compiled
	out   io.Writer
}

// options builds the evaluation options every scheme run shares.
func (h *harness) options() eval.Options {
	return eval.Options{Workers: h.Jobs, Validate: h.Validate, CacheDir: h.CacheDir, CacheMaxBytes: h.CacheMaxBytes, Observer: h.Observer}
}

// emitCacheStats prints one memoization-counter line per compiled
// benchmark, in suite order.
func (h *harness) emitCacheStats() {
	fmt.Fprintln(h.out, "memoization cache (per benchmark):")
	for _, b := range h.benchmarks() {
		c, ok := h.cache[b.Name]
		if !ok {
			continue
		}
		s := c.MemoStats()
		fmt.Fprintf(h.out, "  %-12s hits %6d  misses %6d  rate %5.1f%%  promotions %5d  entries %d\n",
			b.Name, s.Hits, s.Misses, 100*s.HitRate(), s.Promotions, s.Entries)
	}
	h.WriteStoreStats(h.out, "artifact store (shared)")
}

func (h *harness) benchmarks() []bench.Benchmark {
	var out []bench.Benchmark
	for _, b := range bench.All() {
		if h.filter == "" || strings.Contains(b.Name, h.filter) {
			out = append(out, b)
		}
	}
	return out
}

func (h *harness) compiled(b bench.Benchmark) (*eval.Compiled, error) {
	if c, ok := h.cache[b.Name]; ok {
		return c, nil
	}
	c, err := eval.PrepareOpts(h.Ctx, b.Name, b.Source, eval.Options{CacheDir: h.CacheDir, CacheMaxBytes: h.CacheMaxBytes})
	if err != nil {
		return nil, err
	}
	if b.Want != 0 && c.Ret != b.Want {
		return nil, fmt.Errorf("%s: checksum %d, want %d", b.Name, c.Ret, b.Want)
	}
	h.cache[b.Name] = c
	return c, nil
}

// prepareAll compiles every uncached benchmark concurrently (bounded by
// -j), validates checksums, and returns the compiled list in suite order.
func (h *harness) prepareAll(bs []bench.Benchmark) ([]*eval.Compiled, error) {
	var missing []eval.BenchSpec
	for _, b := range bs {
		if _, ok := h.cache[b.Name]; !ok {
			missing = append(missing, eval.BenchSpec{Name: b.Name, Src: b.Source})
		}
	}
	cs, err := eval.PrepareAllOpts(h.Ctx, missing, h.Jobs, eval.Options{CacheDir: h.CacheDir, CacheMaxBytes: h.CacheMaxBytes})
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		h.cache[c.Name] = c
	}
	out := make([]*eval.Compiled, len(bs))
	for i, b := range bs {
		c := h.cache[b.Name]
		if b.Want != 0 && c.Ret != b.Want {
			return nil, fmt.Errorf("%s: checksum %d, want %d", b.Name, c.Ret, b.Want)
		}
		out[i] = c
	}
	return out, nil
}

func (h *harness) runAll(lat int) ([]*eval.BenchResult, error) {
	cfg := machine.Paper2Cluster(lat)
	cs, err := h.prepareAll(h.benchmarks())
	if err != nil {
		return nil, err
	}
	return eval.RunMatrixCtx(h.Ctx, cs, cfg, h.options())
}

func (h *harness) figure2() error {
	lats := []int{1, 5, 10}
	results := map[int][]*eval.BenchResult{}
	for _, lat := range lats {
		rs, err := h.runAll(lat)
		if err != nil {
			return err
		}
		results[lat] = rs
	}
	fmt.Fprintln(h.out, eval.FormatFigure2(lats, results))
	return nil
}

// perfTitle titles Figures 7, 8a and 8b.
func perfTitle(fig string, lat int) string {
	return fmt.Sprintf("Figure %s: performance relative to unified memory (%d-cycle moves)", fig, lat)
}

func (h *harness) perfFigure(title string, lat int) error {
	rs, err := h.runAll(lat)
	if err != nil {
		return err
	}
	fmt.Fprintln(h.out, eval.FormatPerfFigure(title, rs))
	return nil
}

func (h *harness) figure9() error {
	return h.exhaustive(func(name string, ex *eval.ExhaustiveResult) error {
		fmt.Fprintln(h.out, eval.FormatFigure9(name, ex))
		return nil
	})
}

// exhaustive runs the Figure 9 search (5-cycle moves, at most 14 objects)
// on each selected exhaustive benchmark in suite order and hands every
// result to emit.
func (h *harness) exhaustive(emit func(name string, ex *eval.ExhaustiveResult) error) error {
	cfg := machine.Paper2Cluster(5)
	for _, b := range h.benchmarks() {
		if !b.Exhaustive {
			continue
		}
		c, err := h.compiled(b)
		if err != nil {
			return err
		}
		ex, err := eval.ExhaustiveCtx(h.Ctx, c, cfg, h.options(), 14)
		if err != nil {
			return err
		}
		if err := emit(b.Name, ex); err != nil {
			return err
		}
	}
	return nil
}

// topologyFigure sweeps every machine preset at 5-cycle base move latency
// and reports, per preset, the geometric-mean GDP performance relative to
// that preset's own unified-memory bound and the total intercluster moves.
// The benchmarks fan across the -j pool, each task sweeping every preset
// in order; the table is assembled in preset order, so the output and the
// metrics are byte-identical at every -j.
func (h *harness) topologyFigure() error {
	presets := machine.PresetNames()
	cfgs := make([]*machine.Config, len(presets))
	for i, name := range presets {
		cfg, err := machine.Preset(name, 5)
		if err != nil {
			return err
		}
		cfgs[i] = cfg
	}
	cs, err := h.prepareAll(h.benchmarks())
	if err != nil {
		return err
	}
	if len(cs) == 0 {
		return fmt.Errorf("no benchmarks match -run %q", h.filter)
	}
	type cell struct{ unified, gdp *eval.Result }
	progs, err := parallel.MapStage(h.Ctx, "topology", len(cs), h.Jobs,
		func(ctx context.Context, b int) ([]cell, error) {
			c := cs[b]
			cells := make([]cell, len(cfgs))
			for p, cfg := range cfgs {
				u, err := eval.RunSchemeCtx(ctx, c, cfg, eval.SchemeUnified, h.options())
				if err != nil {
					return nil, &eval.CellError{Bench: c.Name, Scheme: eval.SchemeUnified, Err: err}
				}
				g, err := eval.RunSchemeCtx(ctx, c, cfg, eval.SchemeGDP, h.options())
				if err != nil {
					return nil, &eval.CellError{Bench: c.Name, Scheme: eval.SchemeGDP, Err: err}
				}
				cells[p] = cell{u, g}
			}
			return cells, nil
		})
	if err != nil {
		return err
	}
	fmt.Fprintln(h.out, "Cluster count x topology: GDP vs per-machine unified bound (5-cycle base latency)")
	fmt.Fprintf(h.out, "  %-8s %-8s %-9s %12s %12s\n", "preset", "clusters", "topology", "geomean", "moves")
	for p, name := range presets {
		logSum, moves := 0.0, int64(0)
		for b := range cs {
			c := progs[b][p]
			logSum += math.Log(eval.RelativePerf(c.unified, c.gdp))
			moves += c.gdp.Moves
		}
		cfg := cfgs[p]
		fmt.Fprintf(h.out, "  %-8s %-8d %-9s %12.4f %12d\n",
			name, cfg.NumClusters(), cfg.Topology, math.Exp(logSum/float64(len(cs))), moves)
	}
	return nil
}

func (h *harness) figure10() error {
	rs, err := h.runAll(5)
	if err != nil {
		return err
	}
	fmt.Fprintln(h.out, eval.FormatFigure10(rs))
	return nil
}

// jsonRow is the machine-readable record for one benchmark at one latency.
type jsonRow struct {
	Benchmark     string  `json:"benchmark"`
	Latency       int     `json:"move_latency"`
	UnifiedCycles int64   `json:"unified_cycles"`
	GDPCycles     int64   `json:"gdp_cycles"`
	PMaxCycles    int64   `json:"profilemax_cycles"`
	NaiveCycles   int64   `json:"naive_cycles"`
	UnifiedMoves  int64   `json:"unified_moves"`
	GDPMoves      int64   `json:"gdp_moves"`
	PMaxMoves     int64   `json:"profilemax_moves"`
	NaiveMoves    int64   `json:"naive_moves"`
	GDPRel        float64 `json:"gdp_rel"`
	PMaxRel       float64 `json:"profilemax_rel"`
	NaiveRel      float64 `json:"naive_rel"`
	GDPDataMap    []int   `json:"gdp_data_map"`
}

// emitJSON writes one record per (benchmark, latency) for external
// plotting of Figures 2, 7, 8 and 10.
func (h *harness) emitJSON() error {
	var rows []jsonRow
	for _, lat := range []int{1, 5, 10} {
		rs, err := h.runAll(lat)
		if err != nil {
			return err
		}
		for _, r := range rs {
			rows = append(rows, jsonRow{
				Benchmark:     r.Name,
				Latency:       lat,
				UnifiedCycles: r.Unified.Cycles,
				GDPCycles:     r.GDP.Cycles,
				PMaxCycles:    r.PMax.Cycles,
				NaiveCycles:   r.Naive.Cycles,
				UnifiedMoves:  r.Unified.Moves,
				GDPMoves:      r.GDP.Moves,
				PMaxMoves:     r.PMax.Moves,
				NaiveMoves:    r.Naive.Moves,
				GDPRel:        eval.RelativePerf(r.Unified, r.GDP),
				PMaxRel:       eval.RelativePerf(r.Unified, r.PMax),
				NaiveRel:      eval.RelativePerf(r.Unified, r.Naive),
				GDPDataMap:    r.GDP.DataMap,
			})
		}
	}
	enc := json.NewEncoder(h.out)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// emitSVGs renders every figure into dir as SVG files.
func (h *harness) emitSVGs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, svg string) error {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(h.out, "wrote %s\n", path)
		return nil
	}
	byLat := map[int][]*eval.BenchResult{}
	for _, lat := range []int{1, 5, 10} {
		rs, err := h.runAll(lat)
		if err != nil {
			return err
		}
		byLat[lat] = rs
	}
	labels := make([]string, 0, len(byLat[1]))
	for _, r := range byLat[1] {
		labels = append(labels, r.Name)
	}
	// Figure 2: naive cycle increase per latency.
	var f2 []plot.Series
	for _, lat := range []int{1, 5, 10} {
		vals := make([]float64, len(byLat[lat]))
		for i, r := range byLat[lat] {
			vals[i] = eval.CycleIncreasePct(r.Unified, r.Naive)
		}
		f2 = append(f2, plot.Series{Name: fmt.Sprintf("lat %d", lat), Values: vals})
	}
	if err := write("figure2.svg", plot.BarChart(
		"Figure 2: cycle increase of naive data placement vs unified memory",
		"% increase", labels, f2, 0, 0)); err != nil {
		return err
	}
	// Figures 7/8a/8b: relative performance.
	perf := func(rs []*eval.BenchResult) []plot.Series {
		g := make([]float64, len(rs))
		p := make([]float64, len(rs))
		for i, r := range rs {
			g[i] = 100 * eval.RelativePerf(r.Unified, r.GDP)
			p[i] = 100 * eval.RelativePerf(r.Unified, r.PMax)
		}
		return []plot.Series{{Name: "GDP", Values: g}, {Name: "ProfileMax", Values: p}}
	}
	for _, fig := range []struct {
		name string
		lat  int
	}{{"7", 1}, {"8a", 5}, {"8b", 10}} {
		if err := write("figure"+fig.name+".svg", plot.BarChart(perfTitle(fig.name, fig.lat), "% of unified",
			labels, perf(byLat[fig.lat]), 115, 100)); err != nil {
			return err
		}
	}
	// Figure 9 scatters.
	err := h.exhaustive(func(name string, ex *eval.ExhaustiveResult) error {
		pts := make([]plot.Point, len(ex.Points))
		for i, pt := range ex.Points {
			mark := ""
			if pt.Mask == ex.GDPMask {
				mark = "GDP"
			} else if pt.Mask == ex.PMaxMask {
				mark = "PMax"
			}
			pts[i] = plot.Point{X: pt.Imbalance, Y: pt.PerfVsWorst, Shade: pt.Imbalance, Mark: mark}
		}
		return write("figure9-"+name+".svg", plot.Scatter(
			"Figure 9 ("+name+"): exhaustive data mappings",
			"data size imbalance", "performance vs worst mapping", pts))
	})
	if err != nil {
		return err
	}
	// Figure 10: move increase.
	rs := byLat[5]
	g10 := make([]float64, len(rs))
	p10 := make([]float64, len(rs))
	for i, r := range rs {
		g10[i] = eval.MoveIncreasePct(r.Unified, r.GDP)
		p10[i] = eval.MoveIncreasePct(r.Unified, r.PMax)
	}
	return write("figure10.svg", plot.BarChart(
		"Figure 10: increase in dynamic intercluster moves vs unified (5-cycle moves)",
		"% increase", labels,
		[]plot.Series{{Name: "GDP", Values: g10}, {Name: "ProfileMax", Values: p10}}, 0, 0))
}

func (h *harness) compileTimeTable() error {
	rs, err := h.runAll(5)
	if err != nil {
		return err
	}
	fmt.Fprintln(h.out, eval.FormatCompileTime(rs))
	return nil
}
