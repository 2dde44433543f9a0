package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestToolSinksInert pins the zero-value contract: with no sink
// requested the Observer is nil (downstream layers read that as
// observability-off) and Flush writes nothing.
func TestToolSinksInert(t *testing.T) {
	ts := &ToolSinks{}
	if o := ts.Observer(); o != nil {
		t.Fatalf("inert ToolSinks produced an observer: %v", o)
	}
	var sb strings.Builder
	if err := ts.Flush(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("inert Flush wrote %q", sb.String())
	}
}

// TestToolSinksAllSinks exercises the full fan-out: summary to the
// writer, Prometheus text and the sorted trace to files, all from one
// lazily built observer with the deterministic fixed clock.
func TestToolSinksAllSinks(t *testing.T) {
	dir := t.TempDir()
	ts := &ToolSinks{
		TracePath: filepath.Join(dir, "run.trace"),
		Summary:   true,
		PromPath:  filepath.Join(dir, "run.prom"),
	}
	o := ts.Observer()
	if o == nil {
		t.Fatal("enabled ToolSinks returned nil observer")
	}
	if again := ts.Observer(); again != o {
		t.Fatal("Observer must be built once and reused")
	}
	o.Counter("tool_events").Add(3)
	sp := o.Span("phase", "bench", "x")
	sp.End()
	o.Span("phase2").End()

	var sb strings.Builder
	if err := ts.Flush(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "tool_events") || !strings.Contains(out, "counter") {
		t.Errorf("summary missing counter:\n%s", out)
	}
	prom, err := os.ReadFile(ts.PromPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE tool_events counter") {
		t.Errorf("prometheus output missing type line:\n%s", prom)
	}
	trace, err := os.ReadFile(ts.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace has %d lines, want 2:\n%s", len(lines), trace)
	}
	// WriteJSONL sorts, so "phase" (with its attr) precedes "phase2".
	if !strings.Contains(lines[0], `"phase"`) || !strings.Contains(lines[0], `"bench":"x"`) {
		t.Errorf("first trace line wrong: %s", lines[0])
	}
}

// TestToolSinksSummaryOnly covers the branch where metrics are
// requested but no files are: Flush must touch no paths.
func TestToolSinksSummaryOnly(t *testing.T) {
	ts := &ToolSinks{Summary: true}
	ts.Observer().Counter("n").Add(1)
	var sb strings.Builder
	if err := ts.Flush(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "n") {
		t.Errorf("summary missing metric:\n%s", sb.String())
	}
}

// TestToolSinksTraceOnly covers the trace-without-metrics branch: the
// summary writer stays untouched and no snapshot is taken.
func TestToolSinksTraceOnly(t *testing.T) {
	dir := t.TempDir()
	ts := &ToolSinks{TracePath: filepath.Join(dir, "t.trace")}
	ts.Observer().Span("only").End()
	var sb strings.Builder
	if err := ts.Flush(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("trace-only Flush wrote a summary: %q", sb.String())
	}
	if data, err := os.ReadFile(ts.TracePath); err != nil || !strings.Contains(string(data), "only") {
		t.Errorf("trace file wrong (%v):\n%s", err, data)
	}
}

// TestNilHandlePaths sweeps the remaining nil-safety branches: every
// accessor on a nil observer or span must be inert, and With must leave
// a context untouched when given a nil observer.
func TestNilHandlePaths(t *testing.T) {
	var o *Observer
	if o.Histogram("h", 1, 2) != nil {
		t.Error("nil observer must hand out nil metrics")
	}
	real := New(NewRegistry(), nil, nil)
	if real.Histogram("h", 1, 2) == nil {
		t.Error("real observer must hand out real metrics")
	}
	if ctx := With(nil, nil); ctx != nil {
		t.Error("With(nil, nil) must stay nil (observer absent)")
	}
	if From(With(nil, real)) != real {
		t.Error("With(nil, o) must build a carrier context")
	}
	var sp *Span
	sp.SetAttr("k", "v") // must not panic
	s := real.Span("x")
	s.SetAttr("k", "v")
	s.SetAttr("k", "w")
	if s.path != "x" || s.attrs["k"] != "w" {
		t.Errorf("span path/attrs wrong: %q %v", s.path, s.attrs)
	}
	if got := Kind(99).String(); got != "unknown" {
		t.Errorf("Kind(99) = %q", got)
	}
}

// TestToolSinksWriteErrors pins that unwritable sink paths surface as
// errors instead of vanishing with the process.
func TestToolSinksWriteErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "out")
	for _, ts := range []*ToolSinks{
		{PromPath: bad},
		{TracePath: bad},
	} {
		ts.Observer().Counter("n").Add(1)
		if err := ts.Flush(nil); err == nil {
			t.Errorf("Flush(%+v) with unwritable path succeeded", ts)
		}
	}
}
