package obs

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var o *Observer
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var tr *Trace
	var sp *Span

	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter not zero")
	}
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge not zero")
	}
	h.Observe(7)
	if got := r.Counter("x"); got != nil {
		t.Fatal("nil registry returned non-nil counter")
	}
	if got := r.Gauge("x"); got != nil {
		t.Fatal("nil registry returned non-nil gauge")
	}
	if got := r.Histogram("x"); got != nil {
		t.Fatal("nil registry returned non-nil histogram")
	}
	if s := r.Snapshot(); s != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	r.Import(Snapshot{{Name: "x", Kind: KindCounter, Value: 1}}, "")

	if o.Named("a") != nil || o.Scoped() != nil || o.Span("s") != nil {
		t.Fatal("nil observer derivations not nil")
	}
	if o.Counter("x") != nil || o.Histogram("x") != nil {
		t.Fatal("nil observer metrics not nil")
	}
	if o.Registry() != nil {
		t.Fatal("nil observer accessors not zero")
	}

	sp.End()
	sp.SetAttr("k", "v")
	if sp.Observer() != nil {
		t.Fatal("nil span accessors not zero")
	}

	tr.record(Event{Span: "x"}) // must not panic
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestNilObserverZeroAlloc(t *testing.T) {
	var o *Observer
	var c *Counter
	var h *Histogram
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		h.Observe(2)
		o.Span("x").End()
		sp := o.Span("y")
		sp.SetAttr("a", "b")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil observer allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Add(2)
	r.Counter("hits").Add(3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("depth")
	g.Add(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes", 1, 10, 100)
	for _, v := range []int64{0, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	m, ok := s.Get("sizes")
	if !ok || m.Kind != KindHistogram {
		t.Fatalf("missing histogram: %+v", m)
	}
	if m.Count != 6 || m.Sum != 1066 {
		t.Fatalf("count=%d sum=%d, want 6/1066", m.Count, m.Sum)
	}
	want := []Bucket{{1, 2}, {10, 2}, {100, 1}, {math.MaxInt64, 1}}
	if len(m.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", m.Buckets)
	}
	for i, b := range want {
		if m.Buckets[i] != b {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, m.Buckets[i], b)
		}
	}
	// Bounds apply only at creation.
	if r.Histogram("sizes", 5) != h {
		t.Fatal("histogram re-registration returned a different histogram")
	}
	// Default bounds kick in when none given.
	d := r.Histogram("defaulted")
	d.Observe(3)
	md, _ := r.Snapshot().Get("defaulted")
	if len(md.Buckets) != len(DefaultBounds)+1 {
		t.Fatalf("default bounds: %d buckets, want %d", len(md.Buckets), len(DefaultBounds)+1)
	}
}

func TestSnapshotSortedGetValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Add(1)
	r.Gauge("aa").Add(2)
	r.Histogram("mm").Observe(9)
	s := r.Snapshot()
	if len(s) != 3 || s[0].Name != "aa" || s[1].Name != "mm" || s[2].Name != "zz" {
		t.Fatalf("snapshot order: %+v", s)
	}
	if s.Value("zz") != 1 || s.Value("aa") != 2 {
		t.Fatal("Value on counter/gauge wrong")
	}
	if s.Value("mm") != 1 {
		t.Fatal("Value on histogram should be its count")
	}
	if s.Value("absent") != 0 {
		t.Fatal("Value on absent metric should be 0")
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get on absent metric should report !ok")
	}
}

func TestImportLabels(t *testing.T) {
	run := NewRegistry()
	run.Counter("memo_hits").Add(4)
	run.Gauge("depth").Add(2)
	run.Histogram("levels", 1, 4).Observe(3)
	snap := run.Snapshot()

	parent := NewRegistry()
	parent.Import(snap, "")
	parent.Import(snap, `bench="fir"`)
	parent.Import(snap, `bench="fir"`)

	s := parent.Snapshot()
	if s.Value("memo_hits") != 4 {
		t.Fatalf("unlabeled total = %d", s.Value("memo_hits"))
	}
	if s.Value(`memo_hits{bench="fir"}`) != 8 {
		t.Fatalf("labeled total = %d", s.Value(`memo_hits{bench="fir"}`))
	}
	if s.Value(`depth{bench="fir"}`) != 4 {
		t.Fatalf("labeled gauge = %d", s.Value(`depth{bench="fir"}`))
	}
	m, ok := s.Get(`levels{bench="fir"}`)
	if !ok || m.Count != 2 || m.Sum != 6 {
		t.Fatalf("labeled histogram: %+v", m)
	}
	if len(m.Buckets) != 3 || m.Buckets[1] != (Bucket{4, 2}) {
		t.Fatalf("labeled histogram buckets: %+v", m.Buckets)
	}

	// Labels merge into an existing label set.
	if got := withLabels(`x{a="1"}`, `b="2"`); got != `x{a="1",b="2"}` {
		t.Fatalf("withLabels merge = %q", got)
	}
	if got := withLabels("x", ""); got != "x" {
		t.Fatalf("withLabels empty = %q", got)
	}
}

func TestObserverNamedScopedSpan(t *testing.T) {
	tr := NewTrace()
	o := New(NewRegistry(), tr, FixedClock(42))
	m := o.Named("matrix").Named("fir")
	if m.prefix != "matrix/fir" {
		t.Fatalf("path = %q", m.prefix)
	}
	sp := m.Span("sched", "scheme", "GDP")
	child := sp.Observer().Span("inner")
	child.End()
	sp.SetAttr("extra", "1")
	sp.End()

	sc := m.Scoped()
	if sc.Registry() == o.Registry() {
		t.Fatal("Scoped should fork the registry")
	}
	if sc.prefix != "matrix/fir" || sc.trace != tr {
		t.Fatal("Scoped should keep prefix and trace")
	}
	sc.Counter("only_scoped").Add(1)
	if o.Registry().Snapshot().Value("only_scoped") != 0 {
		t.Fatal("scoped metric leaked into parent")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"span":"matrix/fir/sched","start":42,"end":42,"attrs":{"extra":"1","scheme":"GDP"}}
{"span":"matrix/fir/sched/inner","start":42,"end":42}
`
	if buf.String() != want {
		t.Fatalf("trace:\n%s\nwant:\n%s", buf.String(), want)
	}
	if n := len(tr.lines); n != 2 {
		t.Fatalf("trace len = %d", n)
	}
}

func TestTraceDeterministicUnderConcurrency(t *testing.T) {
	render := func() string {
		tr := NewTrace()
		o := New(nil, tr, FixedClock(0))
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					o.Named("w").Span("s", "i", string(rune('a'+i)), "j", string(rune('a'+j))).End()
				}
			}(i)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("concurrent trace output not deterministic")
	}
	if strings.Count(a, "\n") != 160 {
		t.Fatalf("trace lines = %d, want 160", strings.Count(a, "\n"))
	}
}

func TestClocks(t *testing.T) {
	if FixedClock(7)() != 7 {
		t.Fatal("FixedClock")
	}
	w := WallClock()
	now := time.Now().UnixNano()
	v := w()
	if v < now-int64(time.Minute) || v > now+int64(time.Minute) {
		t.Fatalf("WallClock = %d, far from now %d", v, now)
	}
	// New defaults a nil clock to FixedClock(0).
	o := New(nil, NewTrace(), nil)
	sp := o.Span("x")
	sp.End()
	var buf bytes.Buffer
	o.trace.WriteJSONL(&buf)
	if !strings.Contains(buf.String(), `"start":0,"end":0`) {
		t.Fatalf("default clock not fixed at 0: %s", buf.String())
	}
}

func TestContextCarrier(t *testing.T) {
	if From(context.Background()) != nil {
		t.Fatal("empty context should yield nil observer")
	}
	if From(nil) != nil {
		t.Fatal("nil context should yield nil observer")
	}
	ctx := With(context.Background(), nil)
	if From(ctx) != nil {
		t.Fatal("attaching nil observer should be a no-op")
	}
	o := New(NewRegistry(), nil, nil)
	ctx = With(ctx, o)
	if From(ctx) != o {
		t.Fatal("observer lost in context")
	}
	// Re-attaching nil must not clobber the existing observer.
	if From(With(ctx, nil)) != o {
		t.Fatal("nil attach clobbered observer")
	}
}

func TestWriteSummary(t *testing.T) {
	var empty bytes.Buffer
	if err := WriteSummary(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "metrics: none recorded\n" {
		t.Fatalf("empty summary = %q", empty.String())
	}

	r := NewRegistry()
	r.Counter("hits").Add(12)
	r.Gauge("depth").Add(3)
	h := r.Histogram("levels", 1, 4)
	h.Observe(2)
	h.Observe(3)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := "metrics:\n" +
		"  depth   gauge      3\n" +
		"  hits    counter    12\n" +
		"  levels  histogram  n=2 sum=5 avg=2.50\n"
	if buf.String() != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(12)
	r.Counter(`hits{bench="fir"}`).Add(5)
	r.Gauge("depth").Add(3)
	h := r.Histogram("levels", 1, 4)
	h.Observe(2)
	h.Observe(3)
	h.Observe(99)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE depth gauge\n" +
		"depth 3\n" +
		"# TYPE hits counter\n" +
		"hits 12\n" +
		`hits{bench="fir"} 5` + "\n" +
		"# TYPE levels histogram\n" +
		`levels_bucket{le="1"} 0` + "\n" +
		`levels_bucket{le="4"} 2` + "\n" +
		`levels_bucket{le="+Inf"} 3` + "\n" +
		"levels_sum 104\n" +
		"levels_count 3\n"
	if buf.String() != want {
		t.Fatalf("prom:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWritePrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	run := NewRegistry()
	run.Histogram("levels", 1, 4).Observe(3)
	r.Import(run.Snapshot(), `bench="fir"`)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE levels histogram\n" +
		`levels_bucket{bench="fir",le="1"} 0` + "\n" +
		`levels_bucket{bench="fir",le="4"} 1` + "\n" +
		`levels_bucket{bench="fir",le="+Inf"} 1` + "\n" +
		`levels_sum{bench="fir"} 3` + "\n" +
		`levels_count{bench="fir"} 1` + "\n"
	if buf.String() != want {
		t.Fatalf("prom:\n%s\nwant:\n%s", buf.String(), want)
	}
}
