package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Event is one completed span as it appears in the JSON-lines trace.
// Attrs marshal with sorted keys (encoding/json sorts map keys), so an
// event's line depends only on its content.
type Event struct {
	Span  string            `json:"span"`
	Start int64             `json:"start"`
	End   int64             `json:"end"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace accumulates span events for the JSON-lines sink. Events are
// rendered to their final line at record time and sorted at write
// time, so the emitted file is independent of goroutine scheduling —
// with a FixedClock, byte-identical across runs and -j levels. Safe
// for concurrent use; a nil *Trace ignores everything.
type Trace struct {
	mu    sync.Mutex
	lines []string
}

// NewTrace returns an empty trace sink.
func NewTrace() *Trace { return &Trace{} }

// record renders e to its JSON line and appends it.
func (t *Trace) record(e Event) {
	if t == nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	t.mu.Lock()
	t.lines = append(t.lines, string(b))
	t.mu.Unlock()
}

// WriteJSONL writes every recorded event, one JSON object per line,
// sorted lexically by rendered line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	lines := append([]string(nil), t.lines...)
	t.mu.Unlock()
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := io.WriteString(w, l+"\n"); err != nil {
			return err
		}
	}
	return nil
}
