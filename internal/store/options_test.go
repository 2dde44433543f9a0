package store

import "testing"

// TestOptionsDefaults pins the repository-wide non-positive → default
// sentinel (internal/defaults) on the store's size knob, matching every
// other Options struct in the tree.
func TestOptionsDefaults(t *testing.T) {
	if got := (Options{}).maxBytes(); got != DefaultMaxBytes {
		t.Errorf("zero MaxBytes = %d, want DefaultMaxBytes %d", got, DefaultMaxBytes)
	}
	if got := (Options{MaxBytes: -1}).maxBytes(); got != DefaultMaxBytes {
		t.Errorf("negative MaxBytes = %d, want DefaultMaxBytes", got)
	}
	if got := (Options{MaxBytes: 4096}).maxBytes(); got != 4096 {
		t.Errorf("explicit MaxBytes = %d, want 4096", got)
	}
}
