// Package obs is the deterministic observability layer for the mcpart
// pipeline: hierarchical spans over every phase (parse → pointsto →
// data-partition → RHOP → sched → validate), a typed counter / gauge /
// histogram registry, and pluggable sinks (human-readable summary,
// JSON-lines trace, Prometheus-style text exposition).
//
// Everything is nil-safe: every method on a nil *Observer, *Span,
// *Counter, *Gauge, *Histogram, *Registry or *Trace is a no-op, so the
// pipeline threads a single optional pointer through its Options
// structs and pays nothing when observability is off. Hot loops keep
// their own local tallies and flush once per call, so a nil observer
// adds zero allocations to the sched and rhop inner loops (pinned by
// the zero-overhead guard tests in those packages).
//
// Determinism: metric values recorded by the pipeline are counts
// derived from the computation itself (cycles, moves, memo outcomes),
// never wall-clock durations, and trace timestamps come from an
// injectable Clock. With a FixedClock the JSON-lines trace is
// byte-identical across runs and across -j worker counts (the Trace
// sink sorts its lines on Flush, so scheduling order cannot leak into
// the output).
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric types in a Snapshot.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the lower-case kind name used by the sinks.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing metric. Safe for concurrent
// use; a nil Counter ignores Add and reads as zero.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric. Safe for concurrent use; a
// nil Gauge ignores writes and reads as zero.
type Gauge struct{ v atomic.Int64 }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultBounds are the histogram bucket upper bounds used when a
// histogram is registered without explicit bounds: powers of four,
// which cover both small structural counts (region sizes, coarsening
// levels) and large cycle-scale values in a dozen buckets.
var DefaultBounds = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// Histogram counts observations into fixed buckets. Bounds are
// ascending upper bounds (v <= bound falls in that bucket); values
// above the last bound land in an implicit overflow bucket. Safe for
// concurrent use; a nil Histogram ignores Observe.
type Histogram struct {
	mu     sync.Mutex
	bounds []int64
	counts []int64 // len(bounds)+1; last is overflow
	sum    int64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Bucket is one histogram bucket in a Snapshot. Le is the inclusive
// upper bound (the overflow bucket has Le == math.MaxInt64); N is the
// non-cumulative count of observations in the bucket.
type Bucket struct {
	Le int64
	N  int64
}

// Metric is one registered metric captured by Snapshot. Value holds
// counter/gauge values; Count, Sum and Buckets hold histogram state.
type Metric struct {
	Name    string
	Kind    Kind
	Value   int64
	Count   int64
	Sum     int64
	Buckets []Bucket
}

// Snapshot is a point-in-time capture of a Registry, sorted by metric
// name so every sink emits in a deterministic order.
type Snapshot []Metric

// Get returns the metric with the given name, if present.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return Metric{}, false
}

// Value returns the counter/gauge value (or histogram count) of the
// named metric, or zero if it is not present.
func (s Snapshot) Value(name string) int64 {
	m, ok := s.Get(name)
	if !ok {
		return 0
	}
	if m.Kind == KindHistogram {
		return m.Count
	}
	return m.Value
}

// Registry holds named metrics. Metrics are created on first use and
// live for the registry's lifetime. Safe for concurrent use; a nil
// *Registry hands out nil metrics, which are themselves no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Bounds apply only at creation (DefaultBounds when empty); later
// calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = DefaultBounds
		}
		b := make([]int64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// Snapshot captures every registered metric, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := make(Snapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		s = append(s, Metric{Name: name, Kind: KindCounter, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s = append(s, Metric{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		m := Metric{Name: name, Kind: KindHistogram, Count: h.n, Sum: h.sum}
		m.Buckets = make([]Bucket, len(h.counts))
		for i, n := range h.counts {
			le := int64(math.MaxInt64)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			m.Buckets[i] = Bucket{Le: le, N: n}
		}
		h.mu.Unlock()
		s = append(s, m)
	}
	r.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}

// withLabels appends a formatted label set (e.g. `bench="fir"`) to a
// metric name, merging with any labels already present.
func withLabels(name, labels string) string {
	if labels == "" {
		return name
	}
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + labels + "}"
	}
	return name + "{" + labels + "}"
}

// Import folds a snapshot into the registry, adding counter, gauge and
// histogram values into metrics of the same name. When labels is
// non-empty (formatted as `key="value"[,key="value"...]`) it is
// appended to each imported name, so a per-run snapshot can be merged
// once unlabeled (totals) and once labeled per benchmark.
func (r *Registry) Import(s Snapshot, labels string) {
	if r == nil {
		return
	}
	for _, m := range s {
		name := withLabels(m.Name, labels)
		switch m.Kind {
		case KindCounter:
			r.Counter(name).Add(m.Value)
		case KindGauge:
			r.Gauge(name).Add(m.Value)
		case KindHistogram:
			bounds := make([]int64, 0, len(m.Buckets))
			for _, b := range m.Buckets[:max(0, len(m.Buckets)-1)] {
				bounds = append(bounds, b.Le)
			}
			h := r.Histogram(name, bounds...)
			if h == nil {
				continue
			}
			h.mu.Lock()
			for i, b := range m.Buckets {
				if i < len(h.counts) {
					h.counts[i] += b.N
				}
			}
			h.sum += m.Sum
			h.n += m.Count
			h.mu.Unlock()
		}
	}
}
