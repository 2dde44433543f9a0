package mcpart

// session_test.go pins the Session facade's sharing and isolation
// contracts: singleflight compilation, LRU eviction, the memory-pressure
// release valve, error non-caching (one request's cancellation never
// poisons another's result), and that a Session evaluation is
// result-identical to the one-shot facade.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mcpart/internal/bench"
)

func sessionBench(t testing.TB, name string) (string, string) {
	t.Helper()
	b, err := bench.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.Name, b.Source
}

// TestSessionSingleflight pins that N racing requests for the same program
// compile it exactly once and share the same Program value.
func TestSessionSingleflight(t *testing.T) {
	s := NewSession(SessionOptions{})
	defer s.Close()
	name, src := sessionBench(t, "fir")

	const n = 8
	progs := make([]*Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.Compile(context.Background(), name, src, Request{})
			if err != nil {
				t.Errorf("Compile: %v", err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("request %d got a different Program instance", i)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Programs != 1 {
		t.Fatalf("stats after %d racing compiles: %+v", n, st)
	}

	// A different front-end variant is a different program.
	p2, err := s.Compile(context.Background(), name, src, Request{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p2 == progs[0] {
		t.Fatal("unroll variant shared the cached Program")
	}
	if st := s.Stats(); st.Misses != 2 || st.Programs != 2 {
		t.Fatalf("stats after variant compile: %+v", st)
	}
}

// TestSessionErrorsNotCached pins that failed compilations are retried:
// a request canceled before compiling, or failing a budget, must not leave
// a poisoned cache entry behind.
func TestSessionErrorsNotCached(t *testing.T) {
	s := NewSession(SessionOptions{})
	defer s.Close()
	name, src := sessionBench(t, "fir")

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Compile(canceled, name, src, Request{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled compile err = %v", err)
	}
	// Same knobs, live context: must succeed, not replay the cancellation.
	if _, err := s.Compile(context.Background(), name, src, Request{}); err != nil {
		t.Fatalf("compile after canceled attempt: %v", err)
	}

	// A deterministic failure (step budget) is returned every time but
	// never cached either.
	bad := Request{MaxSteps: 10}
	for i := 0; i < 2; i++ {
		if _, err := s.Compile(context.Background(), name, src, bad); err == nil {
			t.Fatal("tight-budget compile succeeded")
		}
	}
	if st := s.Stats(); st.Programs != 1 {
		t.Fatalf("failed compiles left entries resident: %+v", st)
	}
}

// TestSessionLRUEviction pins the program-cache bound: the least recently
// used program goes first, and a re-request recompiles it.
func TestSessionLRUEviction(t *testing.T) {
	s := NewSession(SessionOptions{MaxPrograms: 2})
	defer s.Close()
	name, src := sessionBench(t, "fir")

	var first *Program
	for i, unroll := range []int{1, 2, 3} {
		p, err := s.Compile(context.Background(), name, src, Request{Unroll: unroll})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p
		}
	}
	st := s.Stats()
	if st.Programs != 2 || st.Evictions != 1 || st.Misses != 3 {
		t.Fatalf("stats after 3 compiles at cap 2: %+v", st)
	}
	// unroll=1 was evicted: requesting it again is a miss with a fresh
	// Program value.
	p, err := s.Compile(context.Background(), name, src, Request{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p == first {
		t.Fatal("evicted program came back as the same instance")
	}
	if st := s.Stats(); st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats after re-request: %+v", st)
	}
}

// TestSessionReleaseMemory pins the memory-pressure valve: programs beyond
// the keep bound are evicted and survivors' memoization caches shrink.
func TestSessionReleaseMemory(t *testing.T) {
	s := NewSession(SessionOptions{})
	defer s.Close()
	name, src := sessionBench(t, "fir")
	m := Paper2Cluster(5)

	for _, unroll := range []int{1, 2} {
		if _, err := s.Evaluate(context.Background(), name, src, m, SchemeGDP, Request{Unroll: unroll}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.Compile(context.Background(), name, src, Request{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.MemoStats().Entries == 0 {
		t.Fatal("evaluation left no memo entries to shrink")
	}
	if evicted := s.ReleaseMemory(1); evicted != 1 {
		t.Fatalf("ReleaseMemory evicted %d, want 1", evicted)
	}
	if st := s.Stats(); st.Programs != 1 {
		t.Fatalf("programs after ReleaseMemory: %+v", st)
	}
	if n := p.MemoStats().Entries; n != 0 {
		t.Fatalf("survivor memo entries after shrink to 0: %d", n)
	}
	// Everything still works afterwards, just cold.
	if _, err := s.Evaluate(context.Background(), name, src, m, SchemeGDP, Request{Unroll: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionRequestReleasesPrepared pins that a finished Session request
// drops its program's shared partitioning state while the program and its
// memo stay cached: the one-shot facade keeps the state for the Program's
// lifetime, a session request does not.
func TestSessionRequestReleasesPrepared(t *testing.T) {
	s := NewSession(SessionOptions{})
	defer s.Close()
	name, src := sessionBench(t, "fir")
	m := Paper2Cluster(5)

	p, err := s.Compile(context.Background(), name, src, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(p, m, SchemeGDP, Options{}); err != nil {
		t.Fatal(err)
	}
	if !p.c.HoldsPrepared() {
		t.Fatal("a one-shot evaluation left no prepared state")
	}
	for _, call := range []func() error{
		func() error {
			_, err := s.Evaluate(context.Background(), name, src, m, SchemeNaive, Request{})
			return err
		},
		func() error { _, err := s.EvaluateAll(context.Background(), name, src, m, Request{}); return err },
		func() error { _, err := s.Sweep(context.Background(), name, src, m, 0, Request{}); return err },
		func() error { _, err := s.Best(context.Background(), name, src, m, 0, Request{}); return err },
	} {
		if err := call(); err != nil {
			t.Fatal(err)
		}
		if p.c.HoldsPrepared() {
			t.Fatal("a finished session request kept the prepared state")
		}
		if p.MemoStats().Entries == 0 {
			t.Fatal("releasing the prepared state dropped the memo")
		}
	}
}

// TestSessionMatchesOneShotFacade pins that a Session evaluation returns
// the same deterministic result fields as the one-shot facade for every
// scheme — sharing caches across requests must never change answers.
func TestSessionMatchesOneShotFacade(t *testing.T) {
	s := NewSession(SessionOptions{})
	defer s.Close()
	name, src := sessionBench(t, "fir")
	m := Paper2Cluster(5)

	p, err := Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeUnified, SchemeGDP, SchemeProfileMax, SchemeNaive} {
		want, err := Evaluate(p, m, scheme, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Evaluate(context.Background(), name, src, m, scheme, Request{Validate: true})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if got.Cycles != want.Cycles || got.Moves != want.Moves ||
			fmt.Sprint(got.DataMap) != fmt.Sprint(want.DataMap) {
			t.Fatalf("%s: session (%d cycles, %d moves, %v) != one-shot (%d, %d, %v)",
				scheme, got.Cycles, got.Moves, got.DataMap, want.Cycles, want.Moves, want.DataMap)
		}
	}
}

// TestSessionBestValidates pins that Session.Best forwards Request.Validate
// and Request.Inject: the validated search returns the plain optimum, and
// a validator fault injected into it fails the request.
func TestSessionBestValidates(t *testing.T) {
	s := NewSession(SessionOptions{})
	defer s.Close()
	name, src := sessionBench(t, "fir")
	m := Paper2Cluster(5)

	want, err := s.Best(context.Background(), name, src, m, 0, Request{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Best(context.Background(), name, src, m, 0, Request{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("validated best %+v, plain %+v", got, want)
	}
	inject := func(scheme Scheme, stage string) error {
		if stage == "validate" {
			return errors.New("injected validator failure")
		}
		return nil
	}
	if _, err := s.Best(context.Background(), name, src, m, 0, Request{Validate: true, Inject: inject}); err == nil ||
		!strings.Contains(err.Error(), "injected validator failure") {
		t.Fatalf("err = %v, want the injected validator failure", err)
	}
}

// TestSessionRequestTimeout pins that a per-request Timeout becomes a
// deadline error and leaves the session serving later requests normally.
func TestSessionRequestTimeout(t *testing.T) {
	s := NewSession(SessionOptions{})
	defer s.Close()
	name, src := sessionBench(t, "fir")
	m := Paper2Cluster(5)

	_, err := s.Evaluate(context.Background(), name, src, m, SchemeGDP, Request{Timeout: time.Nanosecond})
	if !isCancellation(err) {
		t.Fatalf("nanosecond-timeout evaluate err = %v, want deadline", err)
	}
	if _, err := s.Evaluate(context.Background(), name, src, m, SchemeGDP, Request{}); err != nil {
		t.Fatalf("evaluate after timed-out request: %v", err)
	}
}

// TestSessionClose pins shutdown semantics: methods fail closed, Close is
// idempotent.
func TestSessionClose(t *testing.T) {
	s := NewSession(SessionOptions{})
	name, src := sessionBench(t, "fir")
	if _, err := s.Compile(context.Background(), name, src, Request{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(context.Background(), name, src, Request{}); !errors.Is(err, errSessionClosed) {
		t.Fatalf("compile after Close: %v", err)
	}
	if _, err := s.Evaluate(context.Background(), name, src, Paper2Cluster(5), SchemeGDP, Request{}); !errors.Is(err, errSessionClosed) {
		t.Fatalf("evaluate after Close: %v", err)
	}
}
