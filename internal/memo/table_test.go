package memo

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitParked polls the goroutine dump until n goroutines are blocked
// in the function fn names itself — waiting on a flight, not computing
// one — so a test can end the flight knowing its waiters really waited on
// it rather than arriving after it ended.
func awaitParked(t *testing.T, fn string, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		dump := string(buf[:runtime.Stack(buf, true)])
		parked := 0
		for _, g := range strings.Split(dump, "\n\n") {
			if top := strings.SplitN(g, "\n", 3); len(top) > 1 && strings.Contains(top[1], fn) {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d goroutines parked on the flight:\n%s", n, dump)
		}
		runtime.Gosched()
	}
}

// tableDo and cacheDo name the frames a flight's waiters block in.
const (
	tableDo = "memo.(*Table[...]).Do("
	cacheDo = "memo.(*Cache).DoCodec("
)

// errOwnerPanicked is what gatedFlight's owner reports when its Do
// panicked.
var errOwnerPanicked = errors.New("the owner's Do panicked")

// gatedFlight starts the owner of key on tb, whose compute blocks until
// release is closed and then returns outcome, and returns once the owner
// is computing. The owner's Do reports on the returned channel: its error,
// or errOwnerPanicked. calls counts the computations.
func gatedFlight(tb *Table[int], key string, calls *atomic.Int32, release <-chan struct{}, outcome func() (int, error)) (owner <-chan error) {
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer func() {
			if recover() != nil {
				done <- errOwnerPanicked
			}
		}()
		_, hit, err := tb.Do([]byte(key), func() (int, error) {
			calls.Add(1)
			close(started)
			<-release
			return outcome()
		})
		if hit {
			err = errors.New("the owner reported a hit")
		}
		done <- err
	}()
	<-started
	return done
}

func TestTableSingleFlight(t *testing.T) {
	var tb Table[int]
	var calls atomic.Int32
	release := make(chan struct{})
	owner := gatedFlight(&tb, "k", &calls, release, func() (int, error) { return 42, nil })
	const waiters = 7
	var hits atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := tb.Do([]byte("k"), func() (int, error) {
				calls.Add(1)
				return -1, nil
			})
			if err != nil || v != 42 {
				t.Errorf("waiter Do = (%d, %v), want (42, nil)", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	awaitParked(t, tableDo, waiters)
	close(release)
	wg.Wait()
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	if n := hits.Load(); n != waiters {
		t.Errorf("%d waiters reported a hit, want %d", n, waiters)
	}
	if v, hit, _ := tb.Do([]byte("k"), func() (int, error) { return -1, nil }); !hit || v != 42 {
		t.Errorf("later Do = (%d, %v), want a hit on 42", v, hit)
	}
}

func TestTableErrorSharedNotStored(t *testing.T) {
	var tb Table[int]
	var calls atomic.Int32
	boom := errors.New("boom")
	release := make(chan struct{})
	owner := gatedFlight(&tb, "k", &calls, release, func() (int, error) { return 0, boom })
	const waiters = 3
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := tb.Do([]byte("k"), func() (int, error) {
				calls.Add(1)
				return 0, nil
			})
			if err != boom || !hit {
				t.Errorf("waiter Do = (hit %v, %v), want (hit, boom)", hit, err)
			}
		}()
	}
	awaitParked(t, tableDo, waiters)
	close(release)
	wg.Wait()
	if err := <-owner; err != boom {
		t.Fatalf("owner err = %v, want boom", err)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after a failed computation, want 0", tb.Len())
	}
	v, hit, err := tb.Do([]byte("k"), func() (int, error) { calls.Add(1); return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry Do = (%d, %v, %v), want (7, false, nil)", v, hit, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2", n)
	}
}

func TestTablePanicEndsFlight(t *testing.T) {
	var tb Table[int]
	var calls atomic.Int32
	release := make(chan struct{})
	owner := gatedFlight(&tb, "k", &calls, release, func() (int, error) { panic("boom") })
	waited := make(chan error, 1)
	go func() {
		_, hit, err := tb.Do([]byte("k"), func() (int, error) { calls.Add(1); return 0, nil })
		if !hit {
			err = errors.New("the waiter did not report a hit")
		}
		waited <- err
	}()
	awaitParked(t, tableDo, 1)
	close(release)
	if err := <-owner; err != errOwnerPanicked {
		t.Fatalf("owner reported %v, want its panic", err)
	}
	select {
	case err := <-waited:
		if !errors.Is(err, errPanicked) {
			t.Fatalf("waiter err = %v, want errPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter of a panicked flight is still blocked")
	}

	// Without waiters too, a panicked compute leaves no flight behind.
	func() {
		defer func() { recover() }()
		tb.Do([]byte("p"), func() (int, error) { panic("boom") })
	}()
	for _, key := range []string{"k", "p"} {
		done := make(chan int, 1)
		go func() {
			v, _, _ := tb.Do([]byte(key), func() (int, error) { return 9, nil })
			done <- v
		}()
		select {
		case v := <-done:
			if v != 9 {
				t.Fatalf("Do(%q) after the panic = %d, want a fresh 9", key, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Do(%q) after a panicked compute is still blocked", key)
		}
	}
}

func TestNilTableComputes(t *testing.T) {
	var tb *Table[int]
	calls := 0
	for i := 0; i < 2; i++ {
		v, hit, err := tb.Do([]byte("k"), func() (int, error) { calls++; return 5, nil })
		if v != 5 || hit || err != nil {
			t.Fatalf("nil Do = (%d, %v, %v), want (5, false, nil)", v, hit, err)
		}
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestTableCopiesKey(t *testing.T) {
	var tb Table[string]
	buf := []byte("abc")
	tb.Do(buf, func() (string, error) {
		copy(buf, "xyz") // callers reuse their key buffer inside compute
		return "abc", nil
	})
	if v, hit, _ := tb.Do([]byte("abc"), func() (string, error) { return "", nil }); !hit || v != "abc" {
		t.Fatalf("Do(abc) = (%q, %v), want a hit on abc", v, hit)
	}
	copy(buf, "abd")
	if v, hit, _ := tb.Do([]byte("abc"), func() (string, error) { return "", nil }); !hit || v != "abc" {
		t.Fatalf("after reusing the buffer, Do(abc) = (%q, %v), want a hit on abc", v, hit)
	}
	if _, hit, _ := tb.Do(buf, func() (string, error) { return "abd", nil }); hit {
		t.Fatal("Do(abd) hit, but only abc was stored")
	}
}

func TestTableLenClear(t *testing.T) {
	var tb Table[int]
	for _, k := range []string{"a", "b", "a", "c"} {
		tb.Do([]byte(k), func() (int, error) { return len(k), nil })
	}
	if n := tb.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	tb.Clear()
	if n := tb.Len(); n != 0 {
		t.Fatalf("Len after Clear = %d, want 0", n)
	}
	if _, hit, _ := tb.Do([]byte("a"), func() (int, error) { return 1, nil }); hit {
		t.Fatal("Do hit after Clear")
	}

	// A flight that Clear drops finishes for its caller but stores nothing.
	var calls atomic.Int32
	release := make(chan struct{})
	owner := gatedFlight(&tb, "d", &calls, release, func() (int, error) { return 4, nil })
	tb.Clear()
	close(release)
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	if n := tb.Len(); n != 0 {
		t.Fatalf("Len = %d after a flight dropped by Clear, want 0", n)
	}
}

// TestCachePanicEndsFlight: a Cache compute that panics must end its
// flight. A waiter gets an error rather than a nil value, and the next Do
// of the key recomputes rather than blocking forever.
func TestCachePanicEndsFlight(t *testing.T) {
	c := new(Cache)
	started, release := make(chan struct{}), make(chan struct{})
	owner := make(chan any, 1)
	go func() {
		defer func() { owner <- recover() }()
		c.DoCodec("k", nil, func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waited := make(chan error, 1)
	go func() {
		v, hit, err := c.DoCodec("k", nil, func() (any, error) { return 0, nil })
		if err == nil || !hit {
			err = fmt.Errorf("the waiter got (%v, hit %v, nil), want a hit and an error", v, hit)
		}
		waited <- err
	}()
	awaitParked(t, cacheDo, 1)
	close(release)
	if <-owner == nil {
		t.Error("a panicking compute did not propagate its panic")
	}
	select {
	case err := <-waited:
		if !errors.Is(err, errPanicked) {
			t.Fatalf("waiter err = %v, want errPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter of a panicked flight is still blocked")
	}

	done := make(chan any, 1)
	go func() {
		v, _, _ := c.DoCodec("k", nil, func() (any, error) { return 3, nil })
		done <- v
	}()
	select {
	case v := <-done:
		if v != 3 {
			t.Fatalf("Do after the panic = %v, want a fresh 3", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do after a panicked compute of the same key is still blocked")
	}
}
