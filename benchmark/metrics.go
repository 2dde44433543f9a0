package main

import (
	"math"
	"sort"
	"syscall"
)

// metricDef declares one printed metric. BENCHMARK.json at the repository
// root declares the same names, units and directions (pinned by
// TestMetricNamesMatchSpec).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of mcpart sees, printed by every workload
// on an untraced run. Their definitions per workload are in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"code_cycles", "cycles", "lower"},
}

// Layer metric names used in more than one place. The *_ms self-time
// metrics are a span's time minus the time its child spans cover, summed
// per layer and divided by the units of work the traced run completed.
const (
	mMclang     = "mclang.self_ms"
	mPointsto   = "pointsto.self_ms"
	mProfile    = "bytecode.profile_ms"
	mPrepare    = "eval.prepare_ms"
	mGDP        = "gdp.self_ms"
	mRhop       = "rhop.self_ms"
	mSched      = "sched.self_ms"
	mCheck      = "check.self_ms"
	mEval       = "eval.self_ms"
	mSweep      = "eval.sweep_ms"
	mVSweep     = "eval.validated_sweep_ms"
	mBest       = "eval.best_ms"
	mStoreOpen  = "store.open_ms"
	mStoreFlush = "store.flush_ms"
	mHarness    = "harness.self_ms"
	mMemoHit    = "memo.hit_ratio"
	mMemoEvict  = "memo.evictions"
	mOverhead   = "harness.trace_overhead_pct"
	mCoverage   = "harness.span_coverage_pct"
	mProbe      = "harness.probe_ms"
)

// counterMetrics maps the program's obs counters onto layer metrics; each
// metric is the counter's total per unit of work.
var counterMetrics = []struct{ counter, metric string }{
	{"interp_steps", "bytecode.steps"},
	{"gdp_cut_weight", "gdp.cut_weight"},
	{"rhop_cost_evals", "rhop.cost_evals"},
	{"rhop_kway_runs", "rhop.kway_runs"},
	{"rhop_refine_runs", "rhop.refine_runs"},
	{"fm_moves", "partition.fm_moves"},
	{"fm_bisections", "partition.fm_bisections"},
	{"fm_tiny_bisections", "partition.fm_tiny_bisections"},
	{"sched_moves", "sched.moves"},
	{"eval_masks", "eval.masks"},
	{"sweep_masks_delta", "eval.masks"},
	{"sweep_funcs_recomputed", "eval.sweep_funcs_recomputed"},
	{"bb_nodes_visited", "eval.bb_nodes_visited"},
}

// perLayer are the metrics of a traced run. Every workload prints all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{mMclang, "ms", "lower"},
	{mPointsto, "ms", "lower"},
	{mProfile, "ms", "lower"},
	{mPrepare, "ms", "lower"},
	{"bytecode.steps", "count", "lower"},
	{mGDP, "ms", "lower"},
	{"gdp.cut_weight", "count", "lower"},
	{mRhop, "ms", "lower"},
	{"rhop.cost_evals", "count", "lower"},
	{"rhop.kway_runs", "count", "lower"},
	{"rhop.refine_runs", "count", "lower"},
	{"partition.fm_moves", "count", "lower"},
	{"partition.fm_bisections", "count", "lower"},
	{"partition.fm_tiny_bisections", "count", "lower"},
	{mSched, "ms", "lower"},
	{"sched.moves", "count", "lower"},
	{mCheck, "ms", "lower"},
	{mEval, "ms", "lower"},
	{mSweep, "ms", "lower"},
	{mVSweep, "ms", "lower"},
	{mBest, "ms", "lower"},
	{"eval.masks", "count", "lower"},
	{"eval.sweep_funcs_recomputed", "count", "lower"},
	{"eval.bb_nodes_visited", "count", "lower"},
	{mMemoHit, "ratio", "higher"},
	{mMemoEvict, "count", "lower"},
	{mStoreOpen, "ms", "lower"},
	{mStoreFlush, "ms", "lower"},
	{"store.hits", "count", "higher"},
	{"store.writes", "count", "lower"},
	{"store.log_bytes", "bytes", "lower"},
	{"serve.server_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p90", "ms", "lower"},
	{"serve.http_ms_p50", "ms", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.latency_p90_ms.r25", "ms", "lower"},
	{"serve.latency_p50_ms.r50", "ms", "lower"},
	{"serve.latency_p90_ms.r50", "ms", "lower"},
	{"serve.latency_p90_ms.r100", "ms", "lower"},
	{"mcpart.session_hit_ratio", "ratio", "higher"},
	{mHarness, "ms", "lower"},
	{"harness.gen_late_ms_p90", "ms", "lower"},
	{mOverhead, "%", "lower"},
	{mCoverage, "%", "higher"},
	{mProbe, "ms", "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map from defs, reading each value from vals
// (absent values read 0).
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// percentile returns the nearest-rank q-quantile of xs, where a failed
// operation is recorded as +Inf: it sorts last and, when the rank lands on
// it, the percentile reads as limit (the time the operation was allowed),
// so a failure can only make the number worse. xs is sorted in place.
func percentile(xs []float64, q, limit float64) float64 {
	if len(xs) == 0 {
		return limit
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if math.IsInf(xs[i], 1) {
		return limit
	}
	return xs[i]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads -compare reports match the ones the
// benchmark's acceptance rule computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// peakRSSMB is the process's peak resident set size (getrusage ru_maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
