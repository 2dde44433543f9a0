// Command gdpc is the compiler driver: it compiles an mclang source file
// (or a bundled benchmark), partitions data and computation for a
// multicluster VLIW machine under a chosen scheme, and reports dynamic
// cycles, intercluster moves, and the data-object placement.
//
// Usage:
//
//	gdpc -bench rawcaudio -scheme gdp -latency 5
//	gdpc -src kernel.mc -scheme all -latency 10 -clusters 2
//	gdpc -bench fir -dump-ir
//
// Observability (DESIGN.md §10): -metrics prints the run's counter/
// histogram summary (memo hits, FM moves, scheduled cycles, ... with
// per-scheme labels), -trace FILE writes the deterministic span trace
// as sorted JSON lines, -prom FILE the metrics in Prometheus text
// format. gdpc evaluates schemes serially, so all three outputs are
// reproducible byte for byte.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mcpart"
	"mcpart/internal/cli"
	"mcpart/internal/ir"
	"mcpart/internal/parallel"
	"mcpart/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdpc:", err)
		os.Exit(1)
	}
}

// config is gdpc's flag surface: the shared cli table plus the driver's
// own flags.
type config struct {
	cli.Flags
	src, bench, scheme, dumpSched string
	list, dumpIR, objects         bool
	clusters, unroll              int
}

func newFlagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("gdpc", flag.ContinueOnError)
	fs.StringVar(&c.src, "src", "", "path to an mclang source file")
	fs.StringVar(&c.bench, "bench", "", "name of a bundled benchmark (see -list)")
	fs.BoolVar(&c.list, "list", false, "list bundled benchmarks and exit")
	fs.StringVar(&c.scheme, "scheme", "all", "gdp | profilemax | naive | unified | all")
	fs.IntVar(&c.clusters, "clusters", 2, "number of clusters (2 or 4; ignored when -machine is set)")
	fs.IntVar(&c.unroll, "unroll", 0, "loop unrolling factor (0 = default)")
	fs.BoolVar(&c.dumpIR, "dump-ir", false, "print the compiled IR and exit")
	fs.StringVar(&c.dumpSched, "dump-sched", "", "print the VLIW schedule of this function under the chosen scheme")
	fs.BoolVar(&c.objects, "objects", true, "print the data-object table")
	c.Register(fs, cli.Machine)
	return fs
}

// run executes the driver against args, writing output to out. Panics
// escaping the pipeline are contained into errors so the driver always
// exits with a one-line diagnostic.
func run(args []string, out io.Writer) (err error) {
	defer func() {
		if pe := parallel.Recovered("gdpc", -1, recover()); pe != nil {
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
	defer func() { err = tool.Finish(out, err) }()

	if c.list {
		for _, n := range mcpart.BenchmarkNames() {
			fmt.Fprintln(out, n)
		}
		return nil
	}

	prog, err := c.load(tool.Ctx)
	if err != nil {
		return err
	}
	if c.dumpIR {
		fmt.Fprint(out, ir.Print(prog.Module()))
		return nil
	}

	name := c.Machine
	if name == "" {
		switch c.clusters {
		case 2:
			name = "paper2"
		case 4:
			name = "four"
		default:
			return fmt.Errorf("unsupported cluster count %d (use 2 or 4, or -machine for topology presets)", c.clusters)
		}
	}
	m, err := mcpart.MachinePreset(name, c.Latency)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "program %s  checksum %d  machine %s\n", prog.Name(), prog.Checksum(), m.Name)
	if c.objects {
		fmt.Fprintln(out, "data objects:")
		for _, o := range prog.Objects() {
			kind := "global"
			if o.Heap {
				kind = "heap"
			}
			fmt.Fprintf(out, "  #%-3d %-24s %-6s %8d bytes %10d accesses\n",
				o.ID, o.Name, kind, o.Bytes, o.Accesses)
		}
	}

	schemes, ok := schemeSets[c.scheme]
	if !ok {
		return fmt.Errorf("unknown scheme %q", c.scheme)
	}
	var unified *mcpart.Result
	for _, s := range schemes {
		r, err := mcpart.EvaluateCtx(tool.Ctx, prog, m, s, mcpart.Options{Validate: c.Validate, CacheDir: c.CacheDir, CacheMaxBytes: c.CacheMaxBytes, Observer: tool.Observer})
		if err != nil {
			return err
		}
		if c.dumpSched != "" && s == schemes[len(schemes)-1] {
			f := prog.Module().Func(c.dumpSched)
			if f == nil {
				return fmt.Errorf("no function %q", c.dumpSched)
			}
			fmt.Fprint(out, sched.FormatFunc(f, r.Assign[f], m, prog.Profile()))
		}
		line := fmt.Sprintf("%-11s %10d cycles %8d moves", s, r.Cycles, r.Moves)
		if s == mcpart.SchemeUnified {
			unified = r
		} else if unified != nil {
			line += fmt.Sprintf("   %6.1f%% of unified", 100*mcpart.RelativePerf(unified, r))
		}
		if r.DataMap != nil {
			line += "   map=" + mapString(r.DataMap)
		}
		fmt.Fprintln(out, line)
	}
	if c.CacheStats {
		s := prog.MemoStats()
		fmt.Fprintf(out, "memo cache: hits %d  misses %d  promotions %d  entries %d\n",
			s.Hits, s.Misses, s.Promotions, s.Entries)
		tool.WriteStoreStats(out, "artifact store")
	}
	return nil
}

// load compiles the -src file or the -bench program.
func (c *config) load(ctx context.Context) (*mcpart.Program, error) {
	copts := mcpart.CompileOptions{Unroll: c.unroll, CacheDir: c.CacheDir, CacheMaxBytes: c.CacheMaxBytes}
	switch {
	case c.src != "" && c.bench != "":
		return nil, fmt.Errorf("use only one of -src and -bench")
	case c.src != "":
		data, err := os.ReadFile(c.src)
		if err != nil {
			return nil, err
		}
		return mcpart.CompileCtx(ctx, c.src, string(data), copts)
	case c.bench != "":
		src, err := mcpart.BenchmarkSource(c.bench)
		if err != nil {
			return nil, err
		}
		return mcpart.CompileCtx(ctx, c.bench, src, copts)
	}
	return nil, fmt.Errorf("need -src FILE or -bench NAME (try -list)")
}

// schemeSets maps each -scheme value to the schemes gdpc evaluates, the
// unified bound first.
var schemeSets = map[string][]mcpart.Scheme{
	"gdp":        {mcpart.SchemeUnified, mcpart.SchemeGDP},
	"profilemax": {mcpart.SchemeUnified, mcpart.SchemeProfileMax},
	"naive":      {mcpart.SchemeUnified, mcpart.SchemeNaive},
	"unified":    {mcpart.SchemeUnified},
	"all":        {mcpart.SchemeUnified, mcpart.SchemeGDP, mcpart.SchemeProfileMax, mcpart.SchemeNaive},
}

func mapString(dm mcpart.DataMap) string {
	out := make([]byte, len(dm))
	for i, c := range dm {
		out[i] = byte('0' + c)
	}
	return string(out)
}
