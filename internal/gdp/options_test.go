package gdp

import "testing"

// TestOptionDefaults pins the documented defaults behind the repository's
// option convention (see internal/defaults): a zero or negative knob
// selects the default, any positive value wins.
func TestOptionDefaults(t *testing.T) {
	var zero Options
	if got := zero.memTol(); got != 0.10 {
		t.Errorf("zero MemTol -> %v, want 0.10", got)
	}
	neg := Options{MemTol: -1}
	if neg.memTol() != 0.10 {
		t.Error("negative knobs must select the defaults")
	}
	set := Options{MemTol: 0.3}
	if set.memTol() != 0.3 {
		t.Error("positive knobs must win over the defaults")
	}
}
