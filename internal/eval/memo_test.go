package eval

import (
	"reflect"
	"testing"

	"mcpart/internal/machine"
)

// TestMemoEquivalenceAllSchemes pins the tentpole determinism contract:
// every scheme returns reflect.DeepEqual-identical deterministic fields
// with the memoization cache (default) and without it (a memo-less copy of
// the program) — including a warm cache, where prior runs of other schemes
// have filled shared entries.
func TestMemoEquivalenceAllSchemes(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	bare := memoless(c)
	for _, cfg := range []*machine.Config{machine.Paper2Cluster(5), machine.Heterogeneous2(5)} {
		memoed, err := RunAllSchemes(c, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := RunAllSchemes(bare, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pairs := []struct {
			scheme   string
			mem, raw *Result
		}{
			{"unified", memoed.Unified, plain.Unified},
			{"gdp", memoed.GDP, plain.GDP},
			{"pmax", memoed.PMax, plain.PMax},
			{"naive", memoed.Naive, plain.Naive},
		}
		for _, p := range pairs {
			if !reflect.DeepEqual(detFields(p.mem), detFields(p.raw)) {
				t.Errorf("%s %s: memoized result differs from cache-off run", cfg.Name, p.scheme)
			}
		}
	}
}

// TestMemoHitsAccounting pins the §4.5 accounting split: DetailedRuns
// counts logical partitioner runs regardless of caching, while the
// unlocked first pass shared by Unified, ProfileMax and Naïve hits the
// cache after its first computation.
func TestMemoHitsAccounting(t *testing.T) {
	c := prepBench(t, "fir") // fresh Compiled: cold cache
	cfg := machine.Paper2Cluster(5)
	opts := Options{Workers: 1}
	nf := len(c.Mod.Funcs)

	uni, err := RunUnified(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if uni.DetailedRuns != 1 || uni.MemoPartitionHits != 0 {
		t.Errorf("cold Unified: runs=%d hits=%d, want 1 logical run with 0 hits",
			uni.DetailedRuns, uni.MemoPartitionHits)
	}
	pm, err := RunProfileMax(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pm.DetailedRuns != 2 {
		t.Errorf("ProfileMax logical runs = %d, want 2 (§4.5)", pm.DetailedRuns)
	}
	if pm.MemoPartitionHits < nf {
		t.Errorf("ProfileMax partition hits = %d, want >= %d (unlocked pass cached by Unified)",
			pm.MemoPartitionHits, nf)
	}
	nv, err := RunNaive(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nv.DetailedRuns != 1 {
		t.Errorf("Naive logical runs = %d, want 1", nv.DetailedRuns)
	}
	if nv.MemoPartitionHits != nf {
		t.Errorf("Naive partition hits = %d, want %d (its only pass is the cached unlocked one)",
			nv.MemoPartitionHits, nf)
	}
	// A second Unified run is now fully cached, partition and schedule.
	uni2, err := RunUnified(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if uni2.MemoPartitionHits != nf || uni2.MemoScheduleHits != nf {
		t.Errorf("warm Unified hits = %d/%d, want %d/%d",
			uni2.MemoPartitionHits, uni2.MemoScheduleHits, nf, nf)
	}
	if uni2.Cycles != uni.Cycles || uni2.Moves != uni.Moves {
		t.Errorf("warm Unified cycles/moves (%d,%d) differ from cold (%d,%d)",
			uni2.Cycles, uni2.Moves, uni.Cycles, uni.Moves)
	}

	st := c.MemoStats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Errorf("cache stats look dead: %+v", st)
	}
}

// TestMemoCacheIsNotCorruptedByNaive pins the copy-on-hit contract:
// RunNaive mutates its assignment in place after the unlocked pass, so a
// subsequent Unified run served from the cache must still see the
// pristine unlocked partition.
func TestMemoCacheIsNotCorruptedByNaive(t *testing.T) {
	c := prepBench(t, "fir")
	cfg := machine.Paper2Cluster(5)
	opts := Options{Workers: 1}
	before, err := RunUnified(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunNaive(c, cfg, opts); err != nil {
		t.Fatal(err)
	}
	after, err := RunUnified(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(detFields(before), detFields(after)) {
		t.Error("Naive's in-place re-homing leaked into the cached unlocked partition")
	}
}

// TestHandBuiltCompiledHasNoCache pins the nil-cache passthrough: a
// Compiled built without Prepare evaluates correctly with no memoization.
func TestHandBuiltCompiledHasNoCache(t *testing.T) {
	p := prepBench(t, "fir")
	bare := memoless(p)
	cfg := machine.Paper2Cluster(5)
	r, err := RunUnified(bare, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.MemoPartitionHits != 0 || r.MemoScheduleHits != 0 {
		t.Error("nil cache must never report hits")
	}
	if s := bare.MemoStats(); s.Hits != 0 && s.Misses != 0 {
		t.Errorf("nil cache stats = %+v, want zero", s)
	}
	want, err := RunUnified(p, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != want.Cycles || r.Moves != want.Moves {
		t.Errorf("bare Compiled cycles (%d,%d) differ from prepared (%d,%d)",
			r.Cycles, r.Moves, want.Cycles, want.Moves)
	}
}
