package obs

// Span is one timed region of the pipeline, identified by a
// slash-separated path (e.g. "matrix/fir/GDP/sched"). Spans are
// created by Observer.Span and record a single trace event when End is
// called. A nil *Span ignores every method, so callers never guard.
type Span struct {
	o     *Observer
	path  string
	start int64
	attrs map[string]string
}

// SetAttr attaches (or overwrites) one key/value attribute on the
// span's eventual trace event.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 1)
	}
	s.attrs[k] = v
}

// Observer returns a derived observer whose span prefix is this span's
// path, so child spans and Named segments nest under it.
func (s *Span) Observer() *Observer {
	if s == nil {
		return nil
	}
	d := *s.o
	d.prefix = s.path
	return &d
}

// End closes the span, recording its trace event. Calling End on a nil
// span, or on a span whose observer has no trace sink, is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.o.trace.record(Event{Span: s.path, Start: s.start, End: s.o.clock(), Attrs: s.attrs})
}
