package mcpart

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"mcpart/internal/bench"
	"mcpart/internal/eval"
	"mcpart/internal/machine"
)

// TestExhaustiveMemoTimeBudget is the timing half of the observability
// zero-overhead guard: with a nil observer (the default — no Options.
// Observer here), the memoized exhaustive search must stay within 2% of
// the per-op time recorded in BENCH_memo.json. Wall-clock comparisons
// against a recorded baseline only mean something on the runner that
// recorded it, so the check is opt-in: set MCPART_TIMING_BUDGET=1 on the
// reference machine (plain `go test` runs skip it and rely on the
// allocation guards in internal/sched and internal/rhop, which are
// machine-independent).
//
// Before blaming instrumentation for an enabled-mode failure, rerun the
// benchmark on the pre-instrumentation tree: when this guard landed, the
// untouched baseline tree measured 0.263s/op on the same container that
// had recorded 0.2477s/op — runners drift, and a failure that reproduces
// without the observer plumbing is the runner's, not the code's.
func TestExhaustiveMemoTimeBudget(t *testing.T) {
	if os.Getenv("MCPART_TIMING_BUDGET") == "" {
		t.Skip("set MCPART_TIMING_BUDGET=1 on the BENCH_memo.json reference runner to enable")
	}
	data, err := os.ReadFile("BENCH_memo.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Results struct {
			MemoSPerOp float64 `json:"memo_s_per_op"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Results.MemoSPerOp <= 0 {
		t.Fatal("BENCH_memo.json has no memo_s_per_op")
	}

	cfg := machine.Paper2Cluster(5)
	bm, err := bench.Get("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	// Same shape as BenchmarkExhaustiveMemo's memoized leg: fresh program
	// per iteration (cold cache), serial sweep. Best-of-3 filters scheduler
	// noise in the direction that matters for a ceiling check.
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		c, err := eval.PrepareOpts(context.Background(), bm.Name, bm.Source, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if _, err := eval.Exhaustive(c, cfg, eval.Options{Workers: 1}, 14); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	budget := time.Duration(rec.Results.MemoSPerOp * 1.02 * float64(time.Second))
	t.Logf("memoized exhaustive: best %.4fs, budget %.4fs (recorded %.4fs + 2%%)",
		best.Seconds(), budget.Seconds(), rec.Results.MemoSPerOp)
	if best > budget {
		t.Errorf("memoized exhaustive search took %.4fs, budget %.4fs", best.Seconds(), budget.Seconds())
	}
}
