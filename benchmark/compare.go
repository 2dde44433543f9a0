package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads the untraced runs of a run record, keyed by workload
// and then seed (a later run of the same seed replaces an earlier one).
func readRecords(path string) (map[string]map[int64]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[int64]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace || r.Result == nil {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[int64]*record{}
		}
		out[r.Workload][r.Seed] = &r
	}
	return out, sc.Err()
}

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	a, b        [3]float64 // first quartile, median, third quartile
	pairs, wins int
	verdict     string
}

// judge applies the rules for claiming a gain and ruling out a
// regression to the runs of a parent (a) and a change (b), paired by seed:
//   - gain: the change wins at least 9 of 10 pairs (ties count for
//     neither) and its median beats the parent's by more than the
//     parent's quartile spread;
//   - unresolved: otherwise, when either side's quartile spread, as a
//     share of its median, is wider than the bound, unless every run of
//     the change beats every run of the parent;
//   - regression: otherwise, when the change's median is worse than the
//     parent's by more than the bound (a share of the parent's median);
//   - unchanged: everything else.
func judge(better string, bound float64, a, b map[int64]float64) verdict {
	var av, bv []float64
	for _, x := range a {
		av = append(av, x)
	}
	for _, x := range b {
		bv = append(bv, x)
	}
	var v verdict
	v.a[0], v.a[1], v.a[2] = quartiles(av)
	v.b[0], v.b[1], v.b[2] = quartiles(bv)
	beats := func(x, y float64) bool { // x is better than y
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	for seed, x := range a {
		if y, ok := b[seed]; ok {
			v.pairs++
			if beats(y, x) {
				v.wins++
			}
		}
	}
	allBetter := true
	for _, y := range bv {
		for _, x := range av {
			allBetter = allBetter && beats(y, x)
		}
	}
	spread := math.Max(relSpread(v.a), relSpread(v.b))
	worse := (v.b[1] - v.a[1]) / math.Abs(v.a[1])
	if better == "higher" {
		worse = -worse
	}
	switch {
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && beats(v.b[1], v.a[1]) && math.Abs(v.b[1]-v.a[1]) > v.a[2]-v.a[0]:
		v.verdict = "gain"
	case spread > bound && !allBetter:
		v.verdict = "unresolved"
	case worse > bound:
		v.verdict = "regression"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// relSpread is the quartile spread as a share of the median.
func relSpread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// compareRecords prints one verdict row per (workload, end-to-end metric)
// of run record b (the change) against run record a (the parent) and
// fails when any row is a regression or unresolved.
func compareRecords(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	s, err := readSpec(specPath)
	var a, b map[string]map[int64]*record
	if err == nil {
		a, err = readRecords(aPath)
	}
	if err == nil {
		b, err = readRecords(bPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return printVerdicts(s, a, b, stdout)
}

// probeScaled are the end-to-end metrics measured as times and scaled by
// the speed probe.
var probeScaled = map[string]bool{"setup_s": true, "throughput_per_s": true, "latency_p50_ms": true, "latency_p90_ms": true}

// printVerdicts prints a row for the speed probe's readings and one
// verdict row per end-to-end metric for each workload. The two sides'
// median readings should agree, since both ran on the same runner at
// alternating times; when they differ by more than a scaled metric's
// bound, the scaling itself is in doubt (the runner changed, or the change
// slowed the probe), and that metric's row is unresolved.
func printVerdicts(s *spec, a, b map[string]map[int64]*record, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbound\tparent q1 / median / q3\tchange q1 / median / q3\tpairs\twins\tverdict")
	code := 0
	for _, w := range s.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t%d runs\t%d runs\t-\t-\tmissing\n", w.Name, len(ra), len(rb))
			code = 1
			continue
		}
		pa, pb := probeValues(ra), probeValues(rb)
		var qa, qb [3]float64
		qa[0], qa[1], qa[2] = quartiles(pa)
		qb[0], qb[1], qb[2] = quartiles(pb)
		moved := math.Abs(qb[1]/qa[1] - 1)
		fmt.Fprintf(tw, "%s\t%s\t-\t%s\t%s\t-\t-\tmoved %.1f%%\n", w.Name, mProbe, fmtQ(qa), fmtQ(qb), 100*moved)
		for _, m := range s.EndToEnd {
			v := judge(m.Better, m.Bound, values(ra, m.Name), values(rb, m.Name))
			if probeScaled[m.Name] && moved > m.Bound {
				v.verdict = "unresolved (probe moved)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%g%%\t%s\t%s\t%d\t%d\t%s\n", w.Name, m.Name, 100*m.Bound,
				fmtQ(v.a), fmtQ(v.b), v.pairs, v.wins, v.verdict)
			if v.verdict != "gain" && v.verdict != "unchanged" {
				code = 1
			}
		}
	}
	tw.Flush()
	return code
}

func values(rs map[int64]*record, metric string) map[int64]float64 {
	out := make(map[int64]float64, len(rs))
	for seed, r := range rs {
		out[seed] = r.Result.Metrics[metric].Value
	}
	return out
}

func probeValues(rs map[int64]*record) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.ProbeMS)
	}
	return out
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g / %.4g / %.4g", q[0], q[1], q[2])
}
