// Package parallel provides the bounded worker pool the evaluation
// pipeline uses to fan independent work units — exhaustive mapping masks,
// (benchmark, scheme) pairs, front-end compilations — across CPUs.
//
// The pool guarantees three properties the deterministic reproduction
// depends on:
//
//   - deterministic result ordering: MapStage returns results indexed by
//     work item, so output is byte-identical regardless of worker count or
//     completion order;
//   - first-error propagation: the error of the lowest-indexed failing
//     item wins, matching what a serial loop would have returned;
//   - cancellation: once any item fails (or the caller's context is
//     canceled), workers stop picking up new items;
//   - panic containment: a panicking work item never kills the process.
//     The panic is recovered into a *PanicError (stage, item index, value,
//     stack) that propagates like any other item error, so the pool drains
//     cleanly and the caller decides how to degrade.
//
// Workers never share mutable state through this package; each writes only
// its own result slot.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"mcpart/internal/obs"
)

// PanicError is a panic recovered from a work item (or from any pipeline
// stage that uses Capture). It records where the panic happened so a matrix
// failure stays attributable, and carries the goroutine stack captured at
// recovery time for debugging.
type PanicError struct {
	// Stage names the pipeline stage that panicked ("matrix", "exhaustive",
	// a scheme name, ...); empty when the caller did not label the pool.
	Stage string
	// Index is the work-item index within the stage, -1 when the panic was
	// captured outside an indexed pool.
	Index int
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack, as formatted by
	// runtime/debug.Stack at recovery time.
	Stack []byte
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

func (e *PanicError) Error() string {
	where := e.Stage
	if where == "" {
		where = "worker"
	}
	if e.Index >= 0 {
		return fmt.Sprintf("panic in %s item %d: %v", where, e.Index, e.Value)
	}
	return fmt.Sprintf("panic in %s: %v", where, e.Value)
}

// Recovered returns the error form of a recover() result: nil for nil, the
// value itself when the panic value already is an error (wrapped so the
// PanicError context is kept by errors.As), and a fresh PanicError
// otherwise. Exposed so non-pool pipeline stages contain panics into the
// same taxonomy.
func Recovered(stage string, index int, v any) *PanicError {
	if v == nil {
		return nil
	}
	return &PanicError{Stage: stage, Index: index, Value: v, Stack: debug.Stack()}
}

// Workers normalizes a worker-count knob: zero or negative selects
// runtime.GOMAXPROCS(0). This is the single sentinel convention every
// -j flag and Options.Workers field in the repository follows.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// MapStage runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines and returns the results in index order. A nil ctx means
// context.Background(). If any call fails, MapStage cancels the shared
// context, lets in-flight calls finish, and returns the error of the
// lowest-indexed failure — exactly the error a serial i := 0..n-1 loop
// would have surfaced. On error the partial results are discarded (nil is
// returned). A panicking item is recovered into a *PanicError and treated
// as that item's failure. The stage label identifies the pool in recovered
// PanicErrors and in the parallel_tasks counter ("unnamed" when empty);
// results and ordinary errors are unaffected by it.
func MapStage[T any](ctx context.Context, stage string, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	// Observability: count tasks per stage and contained panics. The
	// counters are resolved once per MapStage call (nil when no observer
	// rides the context), so the per-item cost is one nil-safe Add.
	var tasks, panics *obs.Counter
	if o := obs.From(ctx); o != nil {
		label := stage
		if label == "" {
			label = "unnamed"
		}
		tasks = o.Counter(`parallel_tasks{stage="` + label + `"}`)
		panics = o.Counter("parallel_panics")
	}
	// contained runs one work item with panic recovery: a panic becomes
	// the item's error, identical at every worker count.
	contained := func(ctx context.Context, i int) (v T, err error) {
		defer func() {
			if pe := Recovered(stage, i, recover()); pe != nil {
				panics.Add(1)
				err = pe
			}
		}()
		tasks.Add(1)
		return fn(ctx, i)
	}
	out := make([]T, n)
	if workers == 1 {
		// Serial fast path: no goroutines, no channels — the -j 1
		// reference the determinism tests compare against.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := contained(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		errIdx   = n // index of the failure currently winning
		next     int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n || firstErr != nil && next > errIdx || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				v, err := contained(ctx, i)
				if err != nil {
					mu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
					cancel()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Do runs every task on at most workers goroutines and returns the error
// of the lowest-indexed failing task, canceling the rest. It is an
// unlabeled MapStage for side-effecting tasks that produce no value.
func Do(ctx context.Context, workers int, tasks ...func(ctx context.Context) error) error {
	_, err := MapStage(ctx, "", len(tasks), workers, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, tasks[i](ctx)
	})
	return err
}
