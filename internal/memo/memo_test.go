package memo

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestDoComputesOnceAndHits(t *testing.T) {
	c := new(Cache)
	calls := 0
	compute := func() (any, error) { calls++; return 42, nil }

	v, hit, err := c.DoCodec("k", nil, compute)
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("first Do = (%v, %v, %v), want (42, false, nil)", v, hit, err)
	}
	v, hit, err = c.DoCodec("k", nil, compute)
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("second Do = (%v, %v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := new(Cache)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.DoCodec("k", nil, func() (any, error) { calls++; return nil, boom })
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.DoCodec("k", nil, func() (any, error) { calls++; return 7, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("retry Do = (%v, %v, %v), want (7, false, nil)", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors must not be cached)", calls)
	}
}

// TestConcurrentSingleflight hammers one key from many goroutines: the
// computation must run exactly once and every caller must observe the same
// value.
func TestConcurrentSingleflight(t *testing.T) {
	c := new(Cache)
	var mu sync.Mutex
	calls := 0
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() (any, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		close(started)
		<-release
		return "v", nil
	}

	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.DoCodec("k", nil, compute)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", calls)
	}
	for i, v := range results {
		if v != "v" {
			t.Fatalf("goroutine %d got %v, want v", i, v)
		}
	}
}

// TestConcurrentDistinctKeys checks the cache stays consistent when many
// goroutines fill distinct keys (run with -race).
func TestConcurrentDistinctKeys(t *testing.T) {
	c := new(Cache)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%8)
			v, _, err := c.DoCodec(key, nil, func() (any, error) { return i % 8, nil })
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if v.(int) != i%8 {
				t.Errorf("key %s -> %v, want %d", key, v, i%8)
			}
		}(i)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries != 8 {
		t.Fatalf("entries = %d, want 8", s.Entries)
	}
}

func TestNilCacheIsPassthrough(t *testing.T) {
	var c *Cache
	calls := 0
	v, hit, err := c.DoCodec("k", nil, func() (any, error) { calls++; return 1, nil })
	if err != nil || hit || v.(int) != 1 {
		t.Fatalf("nil DoCodec = (%v, %v, %v)", v, hit, err)
	}
	v, hit, err = c.DoCodec("k", nil, func() (any, error) { calls++; return 2, nil })
	if err != nil || hit || v.(int) != 2 {
		t.Fatalf("nil DoCodec (2nd) = (%v, %v, %v)", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("nil cache must always recompute; got %d calls", calls)
	}
	c.Clear()
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil stats = %+v, want zero", s)
	}
}

func TestNestedDoDifferentKeys(t *testing.T) {
	c := new(Cache)
	v, _, err := c.DoCodec("outer", nil, func() (any, error) {
		inner, _, err := c.DoCodec("inner", nil, func() (any, error) { return 10, nil })
		if err != nil {
			return nil, err
		}
		return inner.(int) + 1, nil
	})
	if err != nil || v.(int) != 11 {
		t.Fatalf("nested Do = (%v, %v)", v, err)
	}
}

// TestKeyUnambiguous pins that component boundaries cannot collide: the
// same characters split differently must produce different keys.
func TestKeyUnambiguous(t *testing.T) {
	a := NewKey("t").Str("ab").Str("c").String()
	b := NewKey("t").Str("a").Str("bc").String()
	if a == b {
		t.Fatalf("ambiguous keys: %q == %q", a, b)
	}
	c := NewKey("t").Ints([]int{1, 23}).String()
	d := NewKey("t").Ints([]int{12, 3}).String()
	if c == d {
		t.Fatalf("ambiguous int keys: %q == %q", c, d)
	}
	if NewKey("t").Bool(true).String() == NewKey("t").Bool(false).String() {
		t.Fatal("bools must differ")
	}
}

func TestStatsHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Fatalf("empty hit rate = %v, want 0", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", r)
	}
}
