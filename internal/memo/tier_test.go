package memo

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mcpart/internal/obs"
)

// fakeTier is an in-memory Tier with failure injection and call counting.
type fakeTier struct {
	mu      sync.Mutex
	m       map[string][]byte
	gets    int
	puts    int
	corrupt int
}

func newFakeTier() *fakeTier { return &fakeTier{m: map[string][]byte{}} }

func (t *fakeTier) Get(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	b, ok := t.m[key]
	return b, ok
}

func (t *fakeTier) Put(key string, val []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.puts++
	t.m[key] = val
}

func (t *fakeTier) MarkCorrupt(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.corrupt++
	delete(t.m, key)
}

// intCodec encodes an int as a tagged decimal string; the tag check makes
// Decode reject foreign bytes.
type intCodec struct{}

func (intCodec) Encode(v any) ([]byte, error) { return []byte(fmt.Sprintf("i%d", v.(int))), nil }
func (intCodec) Decode(b []byte) (any, error) {
	var n int
	if len(b) == 0 || b[0] != 'i' {
		return nil, errors.New("bad tag")
	}
	if _, err := fmt.Sscanf(string(b[1:]), "%d", &n); err != nil {
		return nil, err
	}
	return n, nil
}

// TestTierWriteBehindAndPromotion pins the full two-tier cycle: a miss
// computes and writes behind to the tier; after the first tier forgets
// (fresh Cache), the same key promotes from the tier without recomputing.
func TestTierWriteBehindAndPromotion(t *testing.T) {
	tier := newFakeTier()
	c1 := new(Cache)
	c1.SetTier(tier)
	calls := 0
	v, hit, err := c1.DoCodec("k", intCodec{}, func() (any, error) { calls++; return 42, nil })
	if err != nil || hit || v.(int) != 42 || calls != 1 {
		t.Fatalf("cold DoCodec = (%v, %v, %v), calls %d", v, hit, err, calls)
	}
	if tier.puts != 1 {
		t.Fatalf("tier puts = %d, want 1 (write-behind)", tier.puts)
	}
	if s := c1.Stats(); s.Promotions != 0 || s.Misses != 1 {
		t.Fatalf("cold stats = %+v", s)
	}

	// A fresh cache over the same tier: warm restart.
	c2 := new(Cache)
	c2.SetTier(tier)
	v, hit, err = c2.DoCodec("k", intCodec{}, func() (any, error) { calls++; return -1, nil })
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("warm DoCodec = (%v, %v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1 (promotion must not recompute)", calls)
	}
	s := c2.Stats()
	if s.Hits != 1 || s.Promotions != 1 || s.Misses != 0 {
		t.Fatalf("warm stats = %+v, want 1 hit / 1 promotion / 0 misses", s)
	}

	// Promoted value now lives in the first tier: the next call hits
	// without touching the tier again.
	gets := tier.gets
	if _, hit, _ := c2.DoCodec("k", intCodec{}, func() (any, error) { calls++; return -1, nil }); !hit {
		t.Fatal("promoted entry must hit in tier 1")
	}
	if tier.gets != gets {
		t.Fatal("tier consulted for a tier-1 hit")
	}
	if s := c2.Stats(); s.Promotions != 1 {
		t.Fatalf("promotions grew on a tier-1 hit: %+v", s)
	}
}

// TestTierCorruptValueFallsBack pins the corruption contract: bytes the
// codec rejects degrade to a recompute, mark the tier entry corrupt, and
// the recompute heals it.
func TestTierCorruptValueFallsBack(t *testing.T) {
	tier := newFakeTier()
	tier.m["k"] = []byte("garbage")
	c := new(Cache)
	c.SetTier(tier)
	calls := 0
	v, hit, err := c.DoCodec("k", intCodec{}, func() (any, error) { calls++; return 7, nil })
	if err != nil || hit || v.(int) != 7 || calls != 1 {
		t.Fatalf("corrupt-tier DoCodec = (%v, %v, %v), calls %d", v, hit, err, calls)
	}
	if tier.corrupt != 1 {
		t.Fatalf("MarkCorrupt calls = %d, want 1", tier.corrupt)
	}
	if string(tier.m["k"]) != "i7" {
		t.Fatalf("tier entry not healed: %q", tier.m["k"])
	}
	if s := c.Stats(); s.Promotions != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestTierSingleflightPromotion pins that concurrent callers of one key
// share a single tier read: the flight owner promotes, everyone else
// waits, and the tier sees exactly one Get.
func TestTierSingleflightPromotion(t *testing.T) {
	tier := newFakeTier()
	tier.m["k"] = []byte("i99")
	c := new(Cache)
	c.SetTier(tier)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.DoCodec("k", intCodec{}, func() (any, error) {
				t.Error("compute must not run when the tier holds the value")
				return nil, nil
			})
			if err != nil || !hit || v.(int) != 99 {
				t.Errorf("DoCodec = (%v, %v, %v)", v, hit, err)
			}
		}()
	}
	wg.Wait()
	if tier.gets != 1 {
		t.Fatalf("tier gets = %d, want 1 (singleflight-consistent promotion)", tier.gets)
	}
	s := c.Stats()
	if s.Promotions != 1 || s.Hits != n || s.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 promotion / %d hits / 0 misses", s, n)
	}
}

// TestDoWithoutCodecSkipsTier pins that a codec-less DoCodec never touches the tier
// (values without a codec cannot round-trip).
func TestDoWithoutCodecSkipsTier(t *testing.T) {
	tier := newFakeTier()
	tier.m["k"] = []byte("i1")
	c := new(Cache)
	c.SetTier(tier)
	v, hit, err := c.DoCodec("k", nil, func() (any, error) { return 2, nil })
	if err != nil || hit || v.(int) != 2 {
		t.Fatalf("Do = (%v, %v, %v)", v, hit, err)
	}
	if tier.gets != 0 || tier.puts != 0 {
		t.Fatalf("tier touched by codec-less Do: gets %d puts %d", tier.gets, tier.puts)
	}
}

// TestTierErrorsNotWritten pins that failed computations never reach the
// tier.
func TestTierErrorsNotWritten(t *testing.T) {
	tier := newFakeTier()
	c := new(Cache)
	c.SetTier(tier)
	boom := errors.New("boom")
	if _, _, err := c.DoCodec("k", intCodec{}, func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if tier.puts != 0 {
		t.Fatal("error value written to tier")
	}
}

// TestPromotionObserverMirror pins the memo_promotions counter.
func TestPromotionObserverMirror(t *testing.T) {
	tier := newFakeTier()
	tier.m["k"] = []byte("i5")
	c := new(Cache)
	c.SetTier(tier)
	o := obs.New(obs.NewRegistry(), nil, nil)
	c.SetObserver(o)
	if _, hit, _ := c.DoCodec("k", intCodec{}, func() (any, error) { return nil, nil }); !hit {
		t.Fatal("want promotion hit")
	}
	snap := o.Registry().Snapshot()
	if got := snap.Value("memo_promotions"); got != 1 {
		t.Fatalf("memo_promotions = %d, want 1", got)
	}
	if got := snap.Value("memo_hits"); got != 1 {
		t.Fatalf("memo_hits = %d, want 1", got)
	}
}

// TestNilCacheDoCodec pins nil-cache passthrough for the codec variant.
func TestNilCacheDoCodec(t *testing.T) {
	var c *Cache
	c.SetTier(newFakeTier())
	v, hit, err := c.DoCodec("k", intCodec{}, func() (any, error) { return 3, nil })
	if err != nil || hit || v.(int) != 3 {
		t.Fatalf("nil DoCodec = (%v, %v, %v)", v, hit, err)
	}
}
