package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"mcpart/internal/obs"
)

// span is one timed region of a traced run: either a harness span the
// benchmark opened around a public call, or a program span the pipeline
// recorded through the obs.Observer the benchmark attached (Program set).
// Parent is the index of the innermost span that contains it in time (-1
// for a root); Unit numbers the unit of work it belongs to (-1 outside any
// unit).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Unit    int    `json:"unit"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Program bool   `json:"program,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
}

// tracer keeps a traced run's spans and counter totals in memory; the
// spans are written out as JSON lines when the run ends.
type tracer struct {
	spans  []span
	selfNs map[string]int64 // layer metric -> summed self time
	counts map[string]int64 // counter or metric name -> summed count
	rootNs int64            // summed duration of root spans
	units  int              // units of work the traced passes completed
}

func newTracer() *tracer {
	return &tracer{selfNs: map[string]int64{}, counts: map[string]int64{}}
}

// group is one traced stretch of work (a pass): the harness spans opened
// during it plus an observer that records the pipeline's own spans (with
// wall-clock timestamps) and counters. A nil *group is the untraced run:
// every method is a no-op and observer() is nil, which keeps the
// pipeline's observability off entirely.
type group struct {
	o      *obs.Observer
	trace  *obs.Trace
	reg    *obs.Registry
	spans  []span
	unit   int
	counts map[string]int64 // layer counts the benchmark reads itself
}

func (t *tracer) begin() *group {
	g := &group{trace: obs.NewTrace(), reg: obs.NewRegistry(), unit: -1, counts: map[string]int64{}}
	g.o = obs.New(g.reg, g.trace, obs.WallClock())
	return g
}

func (g *group) observer() *obs.Observer {
	if g == nil {
		return nil
	}
	return g.o
}

// count adds n to a layer count metric.
func (g *group) count(metric string, n int64) {
	if g != nil {
		g.counts[metric] += n
	}
}

// setUnit numbers the unit the following spans belong to.
func (g *group) setUnit(n int) {
	if g != nil {
		g.unit = n
	}
}

var noop = func() {}

// span opens a harness span charged to layer and returns its closer.
func (g *group) span(name, layer string) func() {
	if g == nil {
		return noop
	}
	i := len(g.spans)
	g.spans = append(g.spans, span{Name: name, Layer: layer, Unit: g.unit, Start: time.Now().UnixNano()})
	return func() { g.spans[i].End = time.Now().UnixNano() }
}

// end folds a finished group into the tracer: it merges the program's
// span events with the harness spans, nests them by time, and adds every
// span's self time to its layer and the observer's counters to the totals.
func (t *tracer) end(g *group) error {
	var buf bytes.Buffer
	if err := g.trace.WriteJSONL(&buf); err != nil {
		return err
	}
	spans := g.spans
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		spans = append(spans, span{Name: e.Span, Layer: programLayer(e.Span), Program: true, Unit: -1, Start: e.Start, End: e.End})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	t.add(spans)
	snap := g.reg.Snapshot()
	for _, cm := range counterMetrics {
		t.counts[cm.metric] += snap.Value(cm.counter)
	}
	for _, name := range []string{"memo_hits", "memo_misses", "memo_evictions"} {
		t.counts[name] += snap.Value(name)
	}
	for name, n := range g.counts {
		t.counts[name] += n
	}
	return nil
}

// add nests a self-contained set of spans and adds their self times to
// their layers and the durations of the roots among them to rootNs.
func (t *tracer) add(spans []span) {
	base := len(t.spans)
	nest(spans)
	for i := range spans {
		s := &spans[i]
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		} else {
			t.rootNs += s.End - s.Start
		}
		t.selfNs[s.Layer] += s.Self
	}
	t.spans = append(t.spans, spans...)
}

// programLayer charges a program span (identified by its obs path) to the
// layer that does the work inside it. A prepare root's own time is the
// front end's work outside its parse, pointsto and profile spans: the
// optimizer and, through a store, the cached-profile lookup. Scheme spans
// and per-mask spans are the eval package's own orchestration (mEval);
// nest charges those to the harness call they run under, so that, say, a
// sweep's first phase, which runs inside a scheme span, counts as sweep
// time.
func programLayer(path string) string {
	if strings.HasPrefix(path, "prepare/") && strings.Count(path, "/") == 1 {
		return mPrepare
	}
	switch path[strings.LastIndexByte(path, '/')+1:] {
	case "data":
		return mGDP
	case "partition":
		return mRhop
	case "sched":
		return mSched
	case "validate":
		return mCheck
	case "parse":
		return mMclang
	case "pointsto":
		return mPointsto
	case "profile":
		return mProfile
	}
	return mEval
}

// nest sorts spans by start (outer spans first on ties), numbers them,
// links each to the innermost earlier span containing it, lets spans
// without a unit inherit their parent's and program orchestration spans
// their parent's layer, and computes self times.
func nest(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	children := make([][][2]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		s.ID = i
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Start <= s.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.Parent = p
			if s.Unit < 0 {
				s.Unit = spans[p].Unit
			}
			if s.Program && s.Layer == mEval && spans[p].Layer != mHarness {
				s.Layer = spans[p].Layer
			}
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
		stack = append(stack, i)
	}
	for i := range spans {
		spans[i].Self = selfTime(spans[i].Start, spans[i].End, children[i])
	}
}

// selfTime is end-start minus the length of the union of the children's
// intervals clipped to [start, end]: children that overlap each other
// (parallel work) are not counted twice.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	open := false
	for _, c := range iv {
		switch {
		case !open:
			curLo, curHi, open = c[0], c[1], true
		case c[0] <= curHi:
			curHi = max(curHi, c[1])
		default:
			covered += curHi - curLo
			curLo, curHi = c[0], c[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return end - start - covered
}

// layerMetrics turns the totals into per-unit layer metrics.
func (t *tracer) layerMetrics(vals map[string]float64) {
	per := float64(max(t.units, 1))
	for layer, ns := range t.selfNs {
		vals[layer] = float64(ns) / 1e6 / per
	}
	for name, n := range t.counts {
		if !strings.HasPrefix(name, "memo_") {
			vals[name] = float64(n) / per
		}
	}
	if hm := t.counts["memo_hits"] + t.counts["memo_misses"]; hm > 0 {
		vals[mMemoHit] = float64(t.counts["memo_hits"]) / float64(hm)
	}
	vals[mMemoEvict] = float64(t.counts["memo_evictions"]) / per
	if t.rootNs > 0 {
		vals[mCoverage] = 100 * (1 - float64(t.selfNs[mHarness])/float64(t.rootNs))
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
