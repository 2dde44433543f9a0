// session.go is the long-lived, multi-request facade behind the gdpd
// daemon (internal/serve). A Session owns the state that should be shared
// across requests — the compiled-program cache (each Program carrying its
// memoization cache), the persistent artifact store, and the metrics
// observer — while a Request carries everything that must stay per-request:
// the wall-clock budget, the profiling step/byte budgets, and the
// scheme-evaluation knobs. The separation is the daemon's isolation
// contract: one request's cancellation, budget exhaustion, or injected
// fault must never poison the shared caches for the next request.
package mcpart

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"mcpart/internal/defaults"
	"mcpart/internal/store"
)

// DefaultSessionPrograms is the default LRU bound on compiled programs a
// Session keeps resident.
const DefaultSessionPrograms = 32

// SessionOptions configures the shared state of a Session.
type SessionOptions struct {
	// CacheDir names the persistent artifact store every compilation and
	// evaluation in this session shares (empty disables the disk tier).
	CacheDir string
	// CacheMaxBytes bounds the artifact log (non-positive: the store's
	// default).
	CacheMaxBytes int64
	// MaxPrograms bounds the compiled-program LRU (non-positive:
	// DefaultSessionPrograms). Evicting a program drops its memoization
	// cache; results are unaffected — a later request recompiles (or
	// reloads the profile from the disk tier).
	MaxPrograms int
	// Observer receives every compilation's and evaluation's metrics and
	// spans; nil disables observability.
	Observer *Observer
}

// Request bundles the per-request knobs of a Session call. The zero value
// means no deadline, default budgets, and plain (non-validated,
// non-degrading) evaluation.
type Request struct {
	// Timeout bounds the request's wall clock, compilation included; 0
	// means no per-request deadline (the caller's context still applies).
	Timeout time.Duration
	// MaxSteps / MaxBytes bound the profiling run (see CompileOptions).
	MaxSteps int64
	MaxBytes int64
	// Unroll / NoOptimize select the front-end variant; they are part of
	// the program-cache key, so variants never collide.
	Unroll     int
	NoOptimize bool
	// Validate re-checks every scheme result with the independent
	// validator; Fallback enables the GDP→ProfileMax→Naive degradation
	// chain (recorded in Result.Degraded). Workers bounds the evaluation
	// worker pool, whose units are whole programs and, in an exhaustive
	// search, per-function cost tables: one program's schemes run in
	// order on one worker.
	Validate bool
	Fallback bool
	Workers  int
	// Inject is the per-request fault-injection hook forwarded to
	// Options.Inject (testing and the daemon's -inject mode).
	Inject func(scheme Scheme, stage string) error
}

// SessionStats are a Session's compiled-program cache counters. Like
// MemoStats they describe work saved, never results.
type SessionStats struct {
	Programs  int    // programs currently resident
	Hits      uint64 // requests served an already-compiled program
	Misses    uint64 // requests that compiled
	Waits     uint64 // hits that waited on an in-flight compilation
	Evictions uint64 // programs dropped by the LRU bound or ReleaseMemory
}

// Session is a long-lived facade instance serving many concurrent
// requests. All methods are safe for concurrent use.
//
// A cached program keeps its memoized results across requests but not its
// shared partitioning state (eval.Compiled.ReleasePrepared): each request
// drops that state when it returns, since repeats are served from the
// memo and holding the state for every resident program would multiply
// the session's memory.
type Session struct {
	opts SessionOptions

	mu       sync.Mutex
	programs map[string]*sessionEntry
	ll       *list.List // front = most recently used
	stats    SessionStats
	closed   bool
}

// sessionEntry is one program-cache slot. ready is closed when the owning
// compilation finishes; prog/err are immutable afterwards. Failed
// compilations are never cached: the owner removes the entry before
// closing ready, so the next request retries.
type sessionEntry struct {
	key   string
	elem  *list.Element
	ready chan struct{}
	prog  *Program
	err   error
}

// NewSession creates a Session.
func NewSession(opts SessionOptions) *Session {
	return &Session{
		opts:     opts,
		programs: make(map[string]*sessionEntry),
		ll:       list.New(),
	}
}

// errSessionClosed is returned by every method after Close.
var errSessionClosed = errors.New("mcpart: session closed")

// compileKey hashes every input that can influence compilation, so two
// requests share a cached Program only when byte-identical compilation
// would result. Budgets are included: a program that fails under a tight
// budget must keep failing for requests that ask for that budget.
func compileKey(name, source string, req Request) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00u%d o%v s%d b%d",
		name, source, req.Unroll, req.NoOptimize, req.MaxSteps, req.MaxBytes)
	return hex.EncodeToString(h.Sum(nil))
}

// deadline applies the request's Timeout to ctx.
func (r Request) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.Timeout > 0 {
		return context.WithTimeout(ctx, r.Timeout)
	}
	return context.WithCancel(ctx)
}

// compileOptions projects the request onto the front-end knobs.
func (r Request) compileOptions(s *Session) CompileOptions {
	return CompileOptions{
		Unroll:        r.Unroll,
		NoOptimize:    r.NoOptimize,
		MaxSteps:      r.MaxSteps,
		MaxBytes:      r.MaxBytes,
		CacheDir:      s.opts.CacheDir,
		CacheMaxBytes: s.opts.CacheMaxBytes,
	}
}

// evalOptions projects the request onto the scheme-evaluation knobs.
func (r Request) evalOptions(s *Session) Options {
	return Options{
		MaxSteps:      r.MaxSteps,
		MaxBytes:      r.MaxBytes,
		Workers:       r.Workers,
		Validate:      r.Validate,
		Fallback:      r.Fallback,
		Inject:        r.Inject,
		CacheDir:      s.opts.CacheDir,
		CacheMaxBytes: s.opts.CacheMaxBytes,
		Observer:      s.opts.Observer,
	}
}

// isCancellation reports whether err is a context cancellation or deadline
// (directly or wrapped).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Compile returns the session's compiled Program for (name, source) under
// the request's front-end knobs, compiling at most once per distinct input
// no matter how many requests race (singleflight). A compilation that
// fails is not cached; in particular, when the owning request is canceled
// mid-compilation, waiting requests whose own contexts are still live
// retry instead of inheriting the owner's cancellation — one caller's
// deadline never poisons another's result.
func (s *Session) Compile(ctx context.Context, name, source string, req Request) (*Program, error) {
	ctx, cancel := req.deadline(ctx)
	defer cancel()
	key := compileKey(name, source, req)
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, errSessionClosed
		}
		if e, ok := s.programs[key]; ok {
			owner := false
			select {
			case <-e.ready:
			default:
				owner = true // still compiling
			}
			s.stats.Hits++
			if owner {
				s.stats.Waits++
			}
			s.ll.MoveToFront(e.elem)
			s.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.err == nil {
				return e.prog, nil
			}
			// The owner failed and already removed the entry. If it failed
			// because *it* was canceled while we are still live, retry with
			// ourselves as owner; otherwise the failure is the input's fault
			// and applies to us too.
			if isCancellation(e.err) && ctx.Err() == nil {
				continue
			}
			return nil, e.err
		}
		e := &sessionEntry{key: key, ready: make(chan struct{})}
		e.elem = s.ll.PushFront(e)
		s.programs[key] = e
		s.stats.Misses++
		s.evictLocked(s.maxPrograms())
		s.mu.Unlock()

		prog, err := CompileCtx(ctx, name, source, req.compileOptions(s))
		if err != nil {
			s.mu.Lock()
			s.removeLocked(e)
			s.mu.Unlock()
			e.err = err
			close(e.ready)
			return nil, err
		}
		e.prog = prog
		close(e.ready)
		return prog, nil
	}
}

func (s *Session) maxPrograms() int { return defaults.Int(s.opts.MaxPrograms, DefaultSessionPrograms) }

// removeLocked forgets an entry if it is still resident (eviction may have
// raced ahead; removal is idempotent).
func (s *Session) removeLocked(e *sessionEntry) {
	if cur, ok := s.programs[e.key]; ok && cur == e {
		delete(s.programs, e.key)
		s.ll.Remove(e.elem)
	}
}

// evictLocked drops least-recently-used *completed* programs until at most
// limit entries remain. In-flight compilations are never evicted — their
// owners hold the entry's identity — so the cache can transiently exceed
// the bound while many distinct compilations race.
func (s *Session) evictLocked(limit int) {
	for el := s.ll.Back(); el != nil && s.ll.Len() > limit; {
		prev := el.Prev()
		e := el.Value.(*sessionEntry)
		select {
		case <-e.ready:
			if e.err == nil {
				delete(s.programs, e.key)
				s.ll.Remove(el)
				s.stats.Evictions++
			}
		default:
		}
		el = prev
	}
}

// Evaluate compiles (or fetches) the program and runs one scheme on it.
func (s *Session) Evaluate(ctx context.Context, name, source string, m *Machine, scheme Scheme, req Request) (*Result, error) {
	ctx, cancel := req.deadline(ctx)
	defer cancel()
	p, err := s.Compile(ctx, name, source, req)
	if err != nil {
		return nil, err
	}
	defer p.c.ReleasePrepared()
	return EvaluateCtx(ctx, p, m, scheme, req.evalOptions(s))
}

// EvaluateAll compiles (or fetches) the program and runs all four Table 1
// schemes.
func (s *Session) EvaluateAll(ctx context.Context, name, source string, m *Machine, req Request) (*Comparison, error) {
	ctx, cancel := req.deadline(ctx)
	defer cancel()
	p, err := s.Compile(ctx, name, source, req)
	if err != nil {
		return nil, err
	}
	defer p.c.ReleasePrepared()
	return EvaluateAllCtx(ctx, p, m, req.evalOptions(s))
}

// Sweep compiles (or fetches) the program and enumerates every data
// mapping (the Figure 9 sweep; maxObjects 0 means the sweep default).
func (s *Session) Sweep(ctx context.Context, name, source string, m *Machine, maxObjects int, req Request) (*ExhaustiveResult, error) {
	ctx, cancel := req.deadline(ctx)
	defer cancel()
	p, err := s.Compile(ctx, name, source, req)
	if err != nil {
		return nil, err
	}
	defer p.c.ReleasePrepared()
	return ExhaustiveSearchCtx(ctx, p, m, req.evalOptions(s), maxObjects)
}

// Best compiles (or fetches) the program and runs the branch-and-bound
// best-mapping search (maxObjects 0 means the search default).
func (s *Session) Best(ctx context.Context, name, source string, m *Machine, maxObjects int, req Request) (*BestMappingResult, error) {
	ctx, cancel := req.deadline(ctx)
	defer cancel()
	p, err := s.Compile(ctx, name, source, req)
	if err != nil {
		return nil, err
	}
	defer p.c.ReleasePrepared()
	return BestMappingCtx(ctx, p, m, req.evalOptions(s), maxObjects)
}

// ReleaseMemory is the memory-pressure release valve: it evicts programs
// down to at most keepPrograms (non-positive: evict all completed ones)
// and empties each survivor's memoization cache. Results are unaffected —
// dropped state recomputes or reloads from the disk tier on demand. It
// reports how many programs were evicted.
func (s *Session) ReleaseMemory(keepPrograms int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if keepPrograms < 0 {
		keepPrograms = 0
	}
	before := s.stats.Evictions
	s.evictLocked(keepPrograms)
	for el := s.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*sessionEntry)
		select {
		case <-e.ready:
			if e.err == nil {
				e.prog.ShrinkMemo()
			}
		default:
		}
	}
	return int(s.stats.Evictions - before)
}

// Stats snapshots the session's program-cache counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Programs = s.ll.Len()
	return st
}

// StoreStats snapshots the shared artifact store's counters (zero when no
// cache directory is configured or the store was never opened).
func (s *Session) StoreStats() StoreStats {
	if s.opts.CacheDir == "" {
		return StoreStats{}
	}
	st, _ := store.SharedStats(s.opts.CacheDir)
	return st
}

// Flush persists the artifact store's write-behind buffer (a no-op without
// a cache directory). The daemon calls it on drain so accepted work is
// durable before exit.
func (s *Session) Flush() error {
	if s.opts.CacheDir == "" {
		return nil
	}
	return store.FlushShared(s.opts.CacheDir)
}

// Close flushes the artifact store and drops every cached program. Further
// method calls fail with a session-closed error. In-flight compilations
// finish (their callers keep their Program pointers); their results are
// simply not retained.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.programs = make(map[string]*sessionEntry)
	s.ll.Init()
	s.mu.Unlock()
	return s.Flush()
}
