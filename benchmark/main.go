// Command benchmark is mcpart's end-to-end benchmark. It drives the system
// only through its public entry points, on one of four seeded workloads,
// and prints the run's result as one JSON object on the last line of its
// standard output. See README.md for the workloads and metrics.
//
// From the repository root:
//
//	bash benchmark/run.sh -workload suite-matrix -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh -smoke
//	bash benchmark/run.sh -compare benchmark/baselines/a.jsonl benchmark/baselines/b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads lists the workload names in the order -smoke runs them.
var workloads = []string{"suite-matrix", "dse-sweep", "warm-restart", "gdpd-mixed"}

func main() {
	if job := os.Getenv(probeEnv); job != "" {
		os.Exit(serveProbe(job, os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed of the unit order and the generated programs")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for the run record, the trace and scratch files")
	smoke := fs.Bool("smoke", false, "run every workload briefly, untraced and traced, with its reference checks")
	compare := fs.Bool("compare", false, "compare two run records given as arguments (parent first), with the bounds in ./BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two run records")
			return 2
		}
		return compareRecords("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *smoke:
		return runSmoke(*out, stdout, stderr)
	case fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0:
		fs.Usage()
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := runOne(*workload, cfg, *out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "benchmark: outputs differ from the references")
		return 1
	}
	return 0
}

// record is one line of <out>/runs.jsonl, the input of -compare. ProbeMS
// is the run's median reading of the speed probe, which -compare checks
// for a shift between the two sides.
type record struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	ProbeMS     float64           `json:"probe_ms"`
	Fingerprint map[string]string `json:"fingerprint"`
	Result      *result           `json:"result"`
}

// runOne runs a workload, appends its record to <out>/runs.jsonl and, for
// a traced run, writes the spans to <out>/trace-<workload>-<seed>.jsonl.
func runOne(workload string, cfg runConfig, out string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var res *result
	var vals map[string]float64
	switch workload {
	case "suite-matrix":
		res, vals, err = runBatch(suiteMatrix(cfg), cfg, tr)
	case "dse-sweep":
		res, vals, err = runBatch(dseSweep(cfg), cfg, tr)
	case "warm-restart":
		res, vals, err = runBatch(warmRestart(cfg, work), cfg, tr)
	case "gdpd-mixed":
		res, vals, err = runGdpd(cfg, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if cfg.trace {
		res.Metrics = fill(perLayer, vals)
		if err := writeFile(filepath.Join(out, fmt.Sprintf("trace-%s-%d.jsonl", workload, cfg.seed)), tr.writeJSONL); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = fill(endToEnd, vals)
	}
	rec, err := json.Marshal(record{workload, cfg.seed, cfg.seconds, cfg.trace, vals[mProbe], fingerprint(), res})
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(out, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	return res, f.Close()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fingerprint describes the runner a record was measured on.
func fingerprint() map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// runSmoke runs every workload briefly, untraced and traced, with its
// reference checks, and fails on any error, mismatch or missing metric.
func runSmoke(out string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			cfg := runConfig{seed: 1, seconds: 0.01, trace: traced, setupReps: 1, maxUnits: 3}
			res, err := runOne(w, cfg, filepath.Join(out, "smoke"))
			switch {
			case err != nil:
				fmt.Fprintf(stderr, "smoke %s trace=%v: %v\n", w, traced, err)
				code = 1
			case !res.Correct || res.Failed > 0 || res.Attempted == 0:
				fmt.Fprintf(stderr, "smoke %s trace=%v: correct=%v attempted=%d failed=%d\n", w, traced, res.Correct, res.Attempted, res.Failed)
				code = 1
			default:
				fmt.Fprintf(stdout, "smoke %s trace=%v: ok, %d units in %.1fs\n", w, traced, res.Attempted, time.Since(t0).Seconds())
			}
		}
	}
	return code
}
