package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersSentinel(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := MapStage(nil, "", 50, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := MapStage(nil, "", 0, 4, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Errorf("MapStage(n=0) = %v, %v; want nil, nil", out, err)
	}
}

// TestMapFirstError checks that the lowest-indexed failure wins regardless
// of completion order: a slow early failure must beat a fast late one.
func TestMapFirstError(t *testing.T) {
	errEarly := errors.New("early")
	for _, workers := range []int{1, 4} {
		_, err := MapStage(nil, "", 20, workers, func(_ context.Context, i int) (int, error) {
			switch i {
			case 2:
				time.Sleep(20 * time.Millisecond)
				return 0, errEarly
			case 10:
				return 0, fmt.Errorf("late")
			}
			return i, nil
		})
		if !errors.Is(err, errEarly) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errEarly)
		}
	}
}

// TestMapCancelStopsDispatch checks that a failure stops new items from
// starting (cancellation), without requiring in-flight ones to abort.
func TestMapCancelStopsDispatch(t *testing.T) {
	var started atomic.Int64
	_, err := MapStage(nil, "", 1000, 2, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n >= 1000 {
		t.Errorf("all %d items started despite early failure", n)
	}
}

func TestMapCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapStage(ctx, "", 10, 4, func(_ context.Context, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestMapPanicContained checks that a panicking work item is recovered
// into a *PanicError (carrying stage, index, value, and a stack) instead of
// crashing the process, at every worker count, and that the pool still
// applies first-error-wins ordering to it.
func TestMapPanicContained(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := MapStage(nil, "teststage", 20, workers, func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *PanicError", workers, err, err)
		}
		if pe.Stage != "teststage" || pe.Index != 3 || pe.Value != "kaboom" {
			t.Errorf("workers=%d: PanicError = {%q, %d, %v}", workers, pe.Stage, pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError carries no stack", workers)
		}
	}
}

// TestMapPanicFirstErrorWins: a low-index ordinary error beats a
// high-index panic, matching the serial reference.
func TestMapPanicFirstErrorWins(t *testing.T) {
	want := errors.New("ordinary")
	_, err := MapStage(nil, "", 20, 4, func(_ context.Context, i int) (int, error) {
		switch i {
		case 1:
			time.Sleep(10 * time.Millisecond)
			return 0, want
		case 15:
			panic("late panic")
		}
		return i, nil
	})
	if !errors.Is(err, want) {
		t.Errorf("err = %v, want the lower-indexed ordinary error", err)
	}
}

// TestPanicErrorUnwrap: an error panic value stays reachable via errors.Is.
func TestPanicErrorUnwrap(t *testing.T) {
	inner := errors.New("inner")
	_, err := MapStage(nil, "", 1, 1, func(context.Context, int) (int, error) { panic(inner) })
	if !errors.Is(err, inner) {
		t.Errorf("errors.Is through PanicError failed: %v", err)
	}
	if Recovered("s", 0, nil) != nil {
		t.Error("Recovered(nil) should be nil")
	}
}

func TestDo(t *testing.T) {
	var a, b atomic.Bool
	err := Do(nil, 2,
		func(context.Context) error { a.Store(true); return nil },
		func(context.Context) error { b.Store(true); return nil },
	)
	if err != nil || !a.Load() || !b.Load() {
		t.Errorf("Do: err=%v a=%v b=%v", err, a.Load(), b.Load())
	}
	want := errors.New("task1")
	err = Do(nil, 2,
		func(context.Context) error { time.Sleep(5 * time.Millisecond); return want },
		func(context.Context) error { return errors.New("task2") },
	)
	if !errors.Is(err, want) {
		t.Errorf("Do err = %v, want %v (lowest index wins)", err, want)
	}
}
