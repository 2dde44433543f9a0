package obs

import "context"

// Observer bundles a metric registry, an optional trace sink, and a
// clock behind one nil-safe handle that the pipeline threads through
// its Options structs. A nil *Observer is fully inert: every method is
// a no-op or returns nil, and the nil metrics it hands out are
// themselves no-ops, so instrumented code never branches on "is
// observability on" except to skip whole flush blocks.
//
// Derived observers share the registry, trace and clock of their
// parent; only the span-path prefix differs. Metric names are global
// (never prefixed) — per-benchmark attribution happens via
// Registry.Import with labels, not via name mangling.
type Observer struct {
	reg    *Registry
	trace  *Trace
	clock  Clock
	prefix string
}

// New returns an observer over the given registry, trace sink and
// clock. Any of the three may be nil/zero; a nil clock defaults to
// FixedClock(0) so traces stay deterministic unless real time is
// explicitly requested.
func New(reg *Registry, trace *Trace, clock Clock) *Observer {
	if clock == nil {
		clock = FixedClock(0)
	}
	return &Observer{reg: reg, trace: trace, clock: clock}
}

// Registry returns the observer's metric registry (nil for a nil
// observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Named returns a derived observer whose span paths are nested one
// level deeper under seg. The registry, trace and clock are shared.
func (o *Observer) Named(seg string) *Observer {
	if o == nil {
		return nil
	}
	d := *o
	if d.prefix == "" {
		d.prefix = seg
	} else {
		d.prefix = d.prefix + "/" + seg
	}
	return &d
}

// Scoped returns a derived observer with a fresh, empty registry and
// the same trace, clock and prefix. The evaluation engine uses this to
// collect one run's metrics in isolation (exposed as Result.Metrics)
// before folding them into the parent registry with Import.
func (o *Observer) Scoped() *Observer {
	if o == nil {
		return nil
	}
	d := *o
	d.reg = NewRegistry()
	return &d
}

// Counter returns the named counter from the observer's registry.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name)
}

// Histogram returns the named histogram from the observer's registry.
func (o *Observer) Histogram(name string, bounds ...int64) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram(name, bounds...)
}

// Span starts a span named name under the observer's prefix. attrs are
// alternating key/value pairs attached to the span's trace event. The
// span records nothing until End is called.
func (o *Observer) Span(name string, attrs ...string) *Span {
	if o == nil {
		return nil
	}
	path := name
	if o.prefix != "" {
		path = o.prefix + "/" + name
	}
	s := &Span{o: o, path: path, start: o.clock()}
	if len(attrs) > 1 {
		s.attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.attrs[attrs[i]] = attrs[i+1]
		}
	}
	return s
}

// ctxKey keys the observer in a context.Context.
type ctxKey struct{}

// With returns a context carrying o. A nil observer leaves ctx
// untouched, so From keeps returning whatever was there before.
func With(ctx context.Context, o *Observer) context.Context {
	if o == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, ctxKey{}, o)
}

// From extracts the observer from ctx, or nil when none is attached.
// The nil result is itself a valid (inert) observer.
func From(ctx context.Context) *Observer {
	if ctx == nil {
		return nil
	}
	o, _ := ctx.Value(ctxKey{}).(*Observer)
	return o
}
