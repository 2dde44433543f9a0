// Package memo provides the deterministic result cache behind the
// evaluation pipeline's memoized partition/schedule hot path (DESIGN.md §7),
// and Table, the exact single-flight memo it and each step below it store
// their entries in.
// The pipeline re-derives identical work constantly — the Figure 9
// exhaustive search runs the detailed partitioner for every one of 2^n
// object mappings even though each function only sees 2^(objects it
// touches) distinct lock signatures, and the Unified, Profile Max and Naïve
// schemes all begin with the same unlocked RHOP pass — so keying results by
// their exact inputs collapses the repeated runs to one computation each.
//
// The cache guarantees the properties the deterministic reproduction
// depends on:
//
//   - value determinism: a key is a canonical encoding of every input the
//     cached computation reads, so whichever call fills an entry stores the
//     same value every other call would have computed — results are
//     byte-identical with the cache on or off and at every worker count;
//   - in-flight deduplication: concurrent DoCodec calls for one key compute
//     the value once and share it (waiters block on the flight rather than
//     duplicating the work).
//
// Entries live until Clear: one Cache belongs to one compiled program, and
// the largest one any workload or tool fills holds about 100,000 entries,
// so memory is bounded per program by its owner (the facade's Session
// drops whole programs, and Clear releases one under pressure).
//
// Under a parallel worker pool the access order — and therefore the
// hit/miss statistics — varies run to run; only Stats is order-sensitive,
// never a cached value.
//
// The cache can carry an optional second tier (SetTier) — in practice the
// persistent content-addressed artifact store of internal/store — consulted
// on a first-tier miss through DoCodec's value codec. Tier-2 lookups share
// the same singleflight: concurrent callers of one key wait on a single
// disk read + decode (a "promotion" into the first tier) exactly as they
// would wait on a single computation, and the promoted value is what every
// waiter sees. A tier value that fails to decode degrades to a recompute —
// the corruption contract is the store's: a corrupt cache is a cold cache,
// never a wrong value.
//
// This package is the compile-time memoization cache. It is unrelated to
// internal/cache, which simulates the paper's §5 future-work hardware
// caches (set-associative LRU data caches replacing the scratchpads).
package memo

import (
	"strconv"

	"mcpart/internal/obs"
)

// Cache is a Table of any values with a second tier, a codec path and
// hit/miss counters. The zero value is an empty cache. A nil *Cache is
// accepted by every method and behaves as a cache that never hits, so
// callers can thread an optional cache without branching.
type Cache struct {
	t    Table[any] // completed entries and flights; t.mu guards the fields below too
	tier Tier       // optional second (disk) tier; nil = none

	hits, misses, waits, promotions uint64

	// Mirror counters into an observer's registry (see SetObserver). The
	// nil defaults are no-ops, so the hot paths below Add unconditionally.
	oHits, oMisses, oWaits, oPromote *obs.Counter
}

// Tier is a second cache level consulted on a first-tier miss (and filled
// after a computation). Implementations deal in encoded bytes; DoCodec's
// Codec translates. MarkCorrupt reports a value whose bytes came back fine
// but failed to decode, so the tier can invalidate the entry. All three
// methods must be safe for concurrent use and must never fail the caller:
// a broken tier behaves as one that never hits and drops writes.
type Tier interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
	MarkCorrupt(key string)
}

// Codec translates one kind of cached value to and from its canonical
// binary encoding for the second tier. Encode must be deterministic
// (identical values encode identically); Decode must reject bytes it did
// not produce (a wrong type tag, a bad shape) with an error, which DoCodec
// treats as a tier miss.
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(b []byte) (any, error)
}

// SetObserver mirrors the cache's hit/miss/wait/promotion counters into
// o's registry (metrics memo_hits, memo_misses, memo_waits,
// memo_promotions) from this call on. A nil observer detaches. Safe to
// call concurrently with DoCodec; last writer wins.
func (c *Cache) SetObserver(o *obs.Observer) {
	if c == nil {
		return
	}
	c.t.mu.Lock()
	c.oHits = o.Counter("memo_hits")
	c.oMisses = o.Counter("memo_misses")
	c.oWaits = o.Counter("memo_waits")
	c.oPromote = o.Counter("memo_promotions")
	c.t.mu.Unlock()
}

// SetTier attaches (or, with nil, detaches) a second cache tier consulted
// by DoCodec on first-tier misses. Attach before the first DoCodec call
// for full effect; attaching mid-run is safe and affects later calls.
func (c *Cache) SetTier(t Tier) {
	if c == nil {
		return
	}
	c.t.mu.Lock()
	c.tier = t
	c.t.mu.Unlock()
}

// Clear drops every completed entry; the counters and the second tier are
// kept. Computations in flight finish for their callers but store nothing.
func (c *Cache) Clear() {
	if c == nil {
		return
	}
	c.t.Clear()
}

// DoCodec returns the cached value for key, computing and storing it with
// compute on a miss. hit reports whether the value came from the cache
// (including waiting on another goroutine's in-flight computation of the
// same key). Errors are never cached: every waiter of a failed flight
// receives the error and the next call retries the computation. A compute
// that panics fails its flight the same way, and the panic propagates to
// the caller. compute runs without the cache lock held, so it may itself
// use the cache (under different keys).
//
// On a first-tier miss, when both a tier (SetTier) and a codec are
// present, the tier is consulted — inside the same singleflight, so
// concurrent callers share one disk read and decode — and a decoded value
// is promoted into the first tier and returned as a hit. A tier value that
// fails to decode is reported to the tier (MarkCorrupt) and falls back to
// compute. A computed value is encoded and written behind to the tier.
// Tier traffic changes wall time and counters, never values: the codec
// round-trips canonically, and any mismatch degrades to the computation
// the cold cache would have run.
func (c *Cache) DoCodec(key string, codec Codec, compute func() (any, error)) (v any, hit bool, err error) {
	if c == nil {
		v, err = compute()
		return v, false, err
	}
	t := &c.t
	t.mu.Lock()
	if v, ok := t.m[key]; ok {
		c.hits++
		c.oHits.Add(1)
		t.mu.Unlock()
		return v, true, nil
	}
	if fl, ok := t.flights[key]; ok {
		c.waits++
		c.hits++
		c.oWaits.Add(1)
		c.oHits.Add(1)
		t.mu.Unlock()
		<-fl.done
		return fl.value, true, fl.err
	}
	tier := c.tier
	if tier == nil {
		codec = nil
	}
	promoted := false
	v, _, err = t.miss(key, func() (any, error) {
		if codec != nil {
			if b, ok := tier.Get(key); ok {
				if val, derr := codec.Decode(b); derr == nil {
					promoted = true
					return val, nil
				}
				// Undecodable payload: invalidate and recompute. The
				// recompute's write-behind heals the entry.
				tier.MarkCorrupt(key)
			}
		}
		return compute()
	})
	t.mu.Lock()
	if promoted {
		c.hits++
		c.promotions++
		c.oHits.Add(1)
		c.oPromote.Add(1)
	} else {
		c.misses++
		c.oMisses.Add(1)
	}
	t.mu.Unlock()
	if !promoted && err == nil && codec != nil {
		if b, eerr := codec.Encode(v); eerr == nil {
			tier.Put(key, b)
		}
	}
	return v, promoted, err
}

// Stats is a point-in-time snapshot of the cache counters. When goroutines
// reach one key at once (concurrent daemon requests on one program), the
// counts depend on scheduling order; cached values never do.
type Stats struct {
	// Hits counts DoCodec calls served from a completed entry, by waiting
	// on an in-flight computation of the same key, or from the second tier.
	Hits uint64
	// Misses counts calls that had to run the computation.
	Misses uint64
	// Waits counts the subset of Hits that blocked on an in-flight
	// computation instead of reading a completed entry.
	Waits uint64
	// Promotions counts the subset of Hits served by decoding a value from
	// the second tier (the persistent artifact store) into the first. With
	// two tiers, Hits - Promotions - Waits is the pure in-memory hit
	// count, so -cachestats can report the tier split unambiguously.
	Promotions uint64
	// Entries is the current number of completed first-tier entries.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the counters. A nil cache reports zeroes.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Waits:      c.waits,
		Promotions: c.promotions,
		Entries:    len(c.t.m),
	}
}

// Key builds canonical cache keys with minimal allocation. Components are
// appended with unambiguous separators so distinct component sequences can
// never collide ("ab"+"c" vs "a"+"bc"). The zero value is ready to use.
type Key struct {
	b []byte
}

// NewKey returns a key builder seeded with a kind tag (e.g. "partition").
func NewKey(kind string) *Key {
	k := &Key{b: make([]byte, 0, 64)}
	return k.Str(kind)
}

// Str appends a length-delimited string component.
func (k *Key) Str(s string) *Key {
	k.b = strconv.AppendInt(k.b, int64(len(s)), 10)
	k.b = append(k.b, ':')
	k.b = append(k.b, s...)
	k.b = append(k.b, '|')
	return k
}

// Ints appends a slice of integers as one component.
func (k *Key) Ints(vs []int) *Key {
	k.b = strconv.AppendInt(k.b, int64(len(vs)), 10)
	k.b = append(k.b, '[')
	for _, v := range vs {
		k.b = strconv.AppendInt(k.b, int64(v), 10)
		k.b = append(k.b, ',')
	}
	k.b = append(k.b, ']', '|')
	return k
}

// Proj appends the projection of vs onto the index set idx as one
// component, byte-identical to Ints of the materialized projection —
// Proj(vs, idx) and Ints(proj) where proj[i] = vs[idx[i]] build the same
// key. Sweep-style callers project a full data map onto a function's
// touched-object set per evaluation; Proj skips the intermediate slice.
func (k *Key) Proj(vs []int, idx []int) *Key {
	k.b = strconv.AppendInt(k.b, int64(len(idx)), 10)
	k.b = append(k.b, '[')
	for _, i := range idx {
		k.b = strconv.AppendInt(k.b, int64(vs[i]), 10)
		k.b = append(k.b, ',')
	}
	k.b = append(k.b, ']', '|')
	return k
}

// Bool appends a boolean component.
func (k *Key) Bool(v bool) *Key {
	if v {
		k.b = append(k.b, '1', '|')
	} else {
		k.b = append(k.b, '0', '|')
	}
	return k
}

// String finalizes the key.
func (k *Key) String() string { return string(k.b) }
