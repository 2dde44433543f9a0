package memo

import (
	"fmt"
	"testing"

	"mcpart/internal/obs"
)

// fill inserts keys k0..k<n-1> via Do, oldest first.
func fill(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(key, func() (any, error) { return i, nil }); err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
	}
}

// keys reports which of k0..k<n-1> are resident.
func resident(c *Cache, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		c.mu.Lock()
		_, ok := c.entries[key]
		c.mu.Unlock()
		if ok {
			out = append(out, key)
		}
	}
	return out
}

// TestShrinkEvictionOrder pins the deterministic eviction order of Shrink:
// least-recently-used entries go first, and a Get refreshes recency exactly
// like insert-time eviction would see it.
func TestShrinkEvictionOrder(t *testing.T) {
	c := New(100)
	fill(t, c, 6) // recency (most..least): k5 k4 k3 k2 k1 k0

	// Touch k0 and k2: recency becomes k2 k0 k5 k4 k3 k1.
	for _, k := range []string{"k0", "k2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("Get(%s) missed", k)
		}
	}

	c.Shrink(3)
	got := resident(c, 6)
	want := []string{"k0", "k2", "k5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("survivors after Shrink(3) = %v, want %v", got, want)
	}
	s := c.Stats()
	if s.Evictions != 3 || s.Entries != 3 {
		t.Fatalf("Stats after Shrink = %+v, want 3 evictions, 3 entries", s)
	}

	// Shrink to the same size is a no-op; Shrink(-1) drops everything.
	c.Shrink(3)
	if s := c.Stats(); s.Evictions != 3 {
		t.Fatalf("no-op Shrink evicted: %+v", s)
	}
	c.Shrink(-1)
	if s := c.Stats(); s.Entries != 0 || s.Evictions != 6 {
		t.Fatalf("Shrink(-1) = %+v, want 0 entries, 6 evictions", s)
	}
}

// TestShrinkObserverMirror pins that forced evictions are mirrored into the
// observer registry's memo_evictions counter, exactly like insert-time
// evictions.
func TestShrinkObserverMirror(t *testing.T) {
	c := New(100)
	reg := obs.NewRegistry()
	c.SetObserver(obs.New(reg, nil, nil))
	fill(t, c, 5)
	c.Shrink(1)
	if got := reg.Snapshot().Value("memo_evictions"); got != 4 {
		t.Fatalf("memo_evictions mirror = %d, want 4", got)
	}
}
