package memo

import (
	"runtime"
	"sync"
	"testing"

	"mcpart/internal/obs"
)

// TestSingleflightWaitCounts pins how in-flight deduplication is counted:
// each waiter on a flight counts as a hit and a wait, and the flight's
// owner as the one miss.
func TestSingleflightWaitCounts(t *testing.T) {
	c := new(Cache)

	// Hammer "a" with one blocked computation and several waiters.
	const waiters = 4
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.DoCodec("a", nil, func() (any, error) {
			close(started)
			<-release
			return "va", nil
		})
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.DoCodec("a", nil, func() (any, error) {
				t.Error("waiter recomputed an in-flight key")
				return nil, nil
			})
			if err != nil || !hit || v != "va" {
				t.Errorf("waiter Do = (%v, %v, %v), want (va, true, nil)", v, hit, err)
			}
		}()
	}
	// Waits is bumped before a waiter blocks on the flight, so polling it
	// guarantees every waiter really is parked on the in-flight computation
	// (not hitting the completed entry after the fact).
	for c.Stats().Waits != uint64(waiters) {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	s := c.Stats()
	if s.Misses != 1 || s.Waits != uint64(waiters) || s.Hits != uint64(waiters) {
		t.Fatalf("stats after singleflight = %+v, want 1 miss / %d waits / %d hits", s, waiters, waiters)
	}

}

// TestObserverCountersMirrorStats pins that the mirrored obs counters track
// Stats exactly from the SetObserver call on, and stop after detach.
func TestObserverCountersMirrorStats(t *testing.T) {
	c := new(Cache)
	c.DoCodec("pre", nil, func() (any, error) { return 0, nil }) // before attach: unmirrored

	o := obs.New(obs.NewRegistry(), nil, nil)
	c.SetObserver(o)
	c.DoCodec("a", nil, func() (any, error) { return 1, nil }) // miss
	c.DoCodec("a", nil, func() (any, error) { return 1, nil }) // hit
	c.DoCodec("b", nil, func() (any, error) { return 2, nil }) // miss
	c.SetObserver(nil)
	c.DoCodec("b", nil, func() (any, error) { return 2, nil }) // hit, after detach

	snap := o.Registry().Snapshot()
	if got := snap.Value("memo_hits"); got != 1 {
		t.Errorf("memo_hits = %d, want 1 (post-detach hit must not count)", got)
	}
	if got := snap.Value("memo_misses"); got != 2 {
		t.Errorf("memo_misses = %d, want 2", got)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 3 || s.Entries != 3 {
		t.Errorf("native stats = %+v, want 2 hits / 3 misses / 3 entries", s)
	}
}
