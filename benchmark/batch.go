package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// unitDef is one unit of work of a batch workload. run does the timed work
// and returns the unit's result; the reference checks look at it only
// after the clock has stopped.
type unitDef struct {
	name string
	run  func(g *group) (any, error)
}

// batch is a workload made of passes over a seeded list of units, run
// back to back by one thread (closed loop, one caller).
type batch struct {
	// setup is the work done before measuring; it runs setupReps times
	// (unless the run asks for another count) and setup_s is the median.
	setup     func() error
	setupReps int
	// units lists pass n's units in their seeded order.
	units func(n int) []unitDef
	// begin and finish, when set, run inside each pass around its units
	// (warm-restart opens and flushes its artifact store there).
	begin, finish func(g *group) error
	// keep receives each unit's result after the pass; an error is a
	// mismatch against an earlier pass or a reference.
	keep func(name string, v any) error
	// verify runs the untimed reference checks over the kept results and
	// returns the workload's code_cycles.
	verify func() (int64, error)
}

// runConfig is what the command line asks of a run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// setupReps overrides the workload's number of set-ups when positive.
	setupReps int
	// maxUnits truncates every pass and the set-up work to that many
	// units (the -smoke mode); 0 keeps all.
	maxUnits int
}

// trim applies cfg.maxUnits to a list of units.
func trim[T any](cfg runConfig, xs []T) []T {
	if cfg.maxUnits > 0 && len(xs) > cfg.maxUnits {
		return xs[:cfg.maxUnits]
	}
	return xs
}

// minUnits is the fewest units an untraced run measures.
const minUnits = 100

// passStats accumulates the measured passes of one kind (traced or not).
type passStats struct {
	names []string  // each unit's name
	lat   []float64 // each unit's CPU time on the thread that ran it, in ms; +Inf for a failed unit
	ok    int
	cpu   float64 // the process's CPU time over the passes, in seconds
}

// add folds one pass's measurements into ps.
func (ps *passStats) add(pass *passStats) {
	ps.names = append(ps.names, pass.names...)
	ps.lat = append(ps.lat, pass.lat...)
	ps.ok += pass.ok
	ps.cpu += pass.cpu
}

func (ps *passStats) mean() float64 {
	var sum float64
	n := 0
	for _, l := range ps.lat {
		if !math.IsInf(l, 1) {
			sum += l
			n++
		}
	}
	return sum / float64(max(n, 1))
}

// typical returns the units' times, each replaced by the median time of
// the units of the same name (nearest rank, so a failure stays +Inf). A
// unit run in many passes then counts with its typical time, and one slow
// pass of one program cannot decide a percentile: suite-matrix's 90th
// percentile, for one, would otherwise be the slowest of the eight or so
// times of its third-slowest program.
func typical(names []string, lat []float64) []float64 {
	by := map[string][]float64{}
	for i, n := range names {
		by[n] = append(by[n], lat[i])
	}
	med := make(map[string]float64, len(by))
	for n, xs := range by {
		med[n] = percentile(xs, 0.5, math.Inf(1))
	}
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = med[n]
	}
	return out
}

// runBatch sets the workload up, measures whole passes until cfg.seconds
// have passed, checks the results, and returns the run's result and the
// values of its metrics.
//
// Times are CPU times, not wall-clock times: the units run one at a time
// on this goroutine, locked to its thread, and a unit's time is that
// thread's CPU time; throughput and set-up count the CPU time of the whole
// process, the garbage collector's threads included. On a shared runner
// this leaves out the time the CPUs ran other work. The speed probe is read
// between units and between set-ups, and every time the run reports is
// scaled by its readings, for the rest of the runner's drift.
//
// A traced run alternates an untraced and a traced pass, so the two see
// the same units and their difference is the tracing overhead.
func runBatch(b *batch, cfg runConfig, tr *tracer) (*result, map[string]float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p, err := startProbe(probeParse)
	if err != nil {
		return nil, nil, err
	}
	defer p.close()
	vals := map[string]float64{}
	reps := b.setupReps
	if cfg.setupReps > 0 {
		reps = cfg.setupReps
	}
	setup, err := timeSetup(b.setup, reps, p)
	if err != nil {
		return nil, nil, err
	}
	measured := len(p.ms)

	var plain, traced passStats
	mismatches := 0
	start := time.Now()
	// A traced run always finishes the pair it started; an untraced one
	// measures at least minUnits units, so that its 90th percentile has ten
	// samples beyond it.
	more := func(n int) bool {
		if cfg.trace {
			return n%2 == 1 || time.Since(start).Seconds() < cfg.seconds
		}
		return len(plain.lat) < minUnits && cfg.maxUnits == 0 || time.Since(start).Seconds() < cfg.seconds
	}
	for n := 0; n == 0 || more(n); n++ {
		var g *group
		ps := &plain
		if cfg.trace && n%2 == 1 {
			g, ps = tr.begin(), &traced
		}
		pass, m, err := runPass(b, n, g, cfg, p)
		if err != nil {
			return nil, nil, err
		}
		ps.add(pass)
		mismatches += m
		if g != nil {
			if err := tr.end(g); err != nil {
				return nil, nil, err
			}
		}
	}

	if p.err != nil {
		return nil, nil, p.err
	}
	vals["peak_rss_mb"] = peakRSSMB() // before the reference checks add their own memory
	cycles, verr := b.verify()
	if verr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reference check:", verr)
		mismatches++
	}
	all := len(plain.lat) + len(traced.lat)
	res := &result{Correct: mismatches == 0, Attempted: all, Failed: all - plain.ok - traced.ok}
	// The set-up is scaled by all of the run's readings: the few taken
	// between set-ups alone moved it by up to 20% from run to run.
	vals["setup_s"] = setup * p.factor(0, len(p.ms))
	f := p.factor(measured, len(p.ms))
	lat := typical(plain.names, plain.lat)
	for i := range lat {
		lat[i] *= f
	}
	limit := cfg.seconds * 1e3
	vals["throughput_per_s"] = float64(plain.ok) / (plain.cpu * f)
	vals["latency_p50_ms"] = percentile(lat, 0.50, limit)
	vals["latency_p90_ms"] = percentile(lat, 0.90, limit)
	vals["code_cycles"] = float64(cycles)
	vals[mProbe] = median(p.ms)
	if cfg.trace {
		tr.units = traced.ok
		tr.layerMetrics(vals)
		vals[mOverhead] = 100 * (traced.mean()/plain.mean() - 1)
	}
	return res, vals, nil
}

// runPass runs pass n, recording into g when it is traced, and hands every
// result to keep once the pass is over. Between units it takes the speed
// probe's readings, while this process waits. It returns the pass's
// unscaled measurements and its mismatch count.
func runPass(b *batch, n int, g *group, cfg runConfig, p *probe) (*passStats, int, error) {
	units := trim(cfg, b.units(n))
	type done struct {
		name string
		v    any
		err  error
	}
	results := make([]done, 0, len(units))
	ps := &passStats{}
	t0 := cpuTime(processClock)
	endPass := g.span(fmt.Sprintf("pass %d", n), mHarness)
	if b.begin != nil {
		if err := b.begin(g); err != nil {
			return nil, 0, err
		}
	}
	for i, u := range units {
		g.setUnit(i)
		endUnit := g.span(u.name, mHarness)
		c0 := cpuTime(threadClock)
		v, err := u.run(g)
		d := cpuTime(threadClock) - c0
		endUnit()
		results = append(results, done{u.name, v, err})
		ps.names = append(ps.names, u.name)
		if err != nil {
			ps.lat = append(ps.lat, math.Inf(1))
			continue
		}
		ps.lat = append(ps.lat, ms(d))
		ps.ok++
		p.due()
	}
	g.setUnit(-1)
	if b.finish != nil {
		if err := b.finish(g); err != nil {
			return nil, 0, err
		}
	}
	endPass()
	ps.cpu = (cpuTime(processClock) - t0).Seconds()

	mismatches := 0
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: unit %s failed: %v\n", r.name, r.err)
			continue
		}
		if err := b.keep(r.name, r.v); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: unit %s: %v\n", r.name, err)
			mismatches++
		}
	}
	return ps, mismatches, nil
}

// timeSetup runs setup reps times, with probe readings between them, and
// returns the median of the process's CPU time in seconds.
func timeSetup(setup func() error, reps int, p *probe) (float64, error) {
	p.readings(1)
	var ts []float64
	for i := 0; i < max(reps, 1); i++ {
		t0 := cpuTime(processClock)
		if err := setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, (cpuTime(processClock) - t0).Seconds())
		p.readings(setupReadings)
	}
	return median(ts), nil
}
