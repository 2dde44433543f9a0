package memo

import (
	"errors"
	"sync"
)

// Table is an unbounded, exact memo (DESIGN.md §7) whose concurrent
// callers of one key wait on a single computation, so the work done, and
// every counter it bumps, does not depend on how many goroutines share it.
// The zero value is an empty table; a nil *Table computes on every call.
type Table[V any] struct {
	mu      sync.Mutex
	m       map[string]V
	flights map[string]*flight[V]
}

// flight is one computation in progress, which its key's callers wait on.
type flight[V any] struct {
	done  chan struct{}
	value V
	err   error
}

var errPanicked = errors.New("memo: the computation this call waited on panicked")

// Do returns the value stored under key, computing it with compute on a
// miss; errors are shared with the waiters, never stored. hit reports a
// stored value or a wait on another caller's computation. Do copies key
// before compute runs, and compute runs unlocked: it may use other tables
// but must never wait on its own key.
func (t *Table[V]) Do(key []byte, compute func() (V, error)) (v V, hit bool, err error) {
	if t == nil {
		v, err = compute()
		return v, false, err
	}
	t.mu.Lock()
	if v, ok := t.m[string(key)]; ok {
		t.mu.Unlock()
		return v, true, nil
	}
	if fl, ok := t.flights[string(key)]; ok {
		t.mu.Unlock()
		<-fl.done
		return fl.value, true, fl.err
	}
	return t.miss(string(key), compute)
}

// miss registers and runs k's flight. The caller holds t.mu. Once compute
// returns, its value is stored (an error is not) and the waiters are
// released; after a panic they get errPanicked, nothing is stored, and the
// panic goes on up the caller's stack. A flight that Clear dropped stores
// nothing.
func (t *Table[V]) miss(k string, compute func() (V, error)) (V, bool, error) {
	if t.flights == nil {
		t.flights = map[string]*flight[V]{}
	}
	fl := &flight[V]{done: make(chan struct{})}
	t.flights[k] = fl
	t.mu.Unlock()
	returned := false // compute returned rather than panicked
	defer func() {
		if !returned {
			fl.err = errPanicked
		}
		t.mu.Lock()
		if t.flights[k] == fl {
			delete(t.flights, k)
			if returned && fl.err == nil {
				if t.m == nil {
					t.m = map[string]V{}
				}
				t.m[k] = fl.value
			}
		}
		t.mu.Unlock()
		close(fl.done)
	}()
	fl.value, fl.err = compute()
	returned = true
	return fl.value, false, fl.err
}

// Len returns the number of stored entries.
func (t *Table[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Clear empties the table. Computations in flight finish for their
// callers but store nothing.
func (t *Table[V]) Clear() {
	t.mu.Lock()
	t.m = nil
	clear(t.flights)
	t.mu.Unlock()
}
