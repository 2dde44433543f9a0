package eval

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/machine"
	"mcpart/internal/profile"
	"mcpart/internal/rhop"
	"mcpart/internal/store"
)

// prepCached is prepBench with a cache directory attached.
func prepCached(t *testing.T, name, dir string) *Compiled {
	t.Helper()
	b, err := bench.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := PrepareOpts(nil, b.Name, b.Source, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ret != b.Want {
		t.Fatalf("%s: checksum %d, want %d", name, c.Ret, b.Want)
	}
	return c
}

// flatResult is detFields with pointer map keys replaced by function
// names, so results from two independent Prepare calls (distinct *ir.Func
// pointers for identical IR) compare with reflect.DeepEqual.
func flatResult(r *Result) map[string]any {
	assign := map[string][]int{}
	for f, a := range r.Assign {
		assign[f.Name] = a
	}
	locks := map[string]rhop.Locks{}
	for f, l := range r.Locks {
		locks[f.Name] = l
	}
	return map[string]any{
		"scheme":  r.Scheme,
		"cycles":  r.Cycles,
		"moves":   r.Moves,
		"datamap": r.DataMap,
		"assign":  assign,
		"locks":   locks,
		"groups":  r.Groups,
		"runs":    r.DetailedRuns,
	}
}

func flatAll(br *BenchResult) []map[string]any {
	return []map[string]any{
		flatResult(br.Unified), flatResult(br.GDP), flatResult(br.PMax), flatResult(br.Naive),
	}
}

// restart simulates a process restart for dir: flush write-behind buffers,
// close the shared handle, and forget it, so the next open pays the real
// index rebuild.
func restart(t *testing.T, dir string) {
	t.Helper()
	if err := store.DropShared(dir); err != nil {
		t.Fatal(err)
	}
}

// TestStoreColdWarmEquivalence pins the tentpole contract end to end at
// the eval layer: a no-cache run, a cold disk-cache run, and a warm run in
// a fresh "process" (new Compiled, reopened store) return DeepEqual
// deterministic fields — and the warm run is genuinely served from disk
// (store hits, memo promotions, no profiling execution).
func TestStoreColdWarmEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := machine.Paper2Cluster(5)

	ref, err := RunAllSchemes(prepBench(t, "fir"), cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	cold, err := RunAllSchemes(prepCached(t, "fir", dir), cfg, Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	restart(t, dir)

	warmC := prepCached(t, "fir", dir)
	warm, err := RunAllSchemes(warmC, cfg, Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(flatAll(ref), flatAll(cold)) {
		t.Error("cold disk-cache results differ from no-cache reference")
	}
	if !reflect.DeepEqual(flatAll(ref), flatAll(warm)) {
		t.Error("warm disk-cache results differ from no-cache reference")
	}

	st := warmC.StoreStats()
	if st.Hits == 0 {
		t.Errorf("warm run had no store hits: %+v", st)
	}
	if ms := warmC.MemoStats(); ms.Promotions == 0 {
		t.Errorf("warm run promoted nothing from the disk tier: %+v", ms)
	}
}

// TestStoreProfileCached pins the Prepare fast path: the second Prepare of
// the same source against a warm store serves the profile from disk —
// identical checksum, block frequencies, and per-op access counts.
func TestStoreProfileCached(t *testing.T) {
	dir := t.TempDir()
	c1 := prepCached(t, "fir", dir)
	restart(t, dir)

	pre, _ := store.SharedStats(dir)
	c2 := prepCached(t, "fir", dir)
	post, ok := store.SharedStats(dir)
	if !ok || post.Hits <= pre.Hits {
		t.Fatalf("warm Prepare did not hit the store: %+v -> %+v", pre, post)
	}
	if c1.Prof.Steps != c2.Prof.Steps || c1.Ret != c2.Ret {
		t.Fatalf("cached profile differs: steps %d/%d ret %d/%d",
			c1.Prof.Steps, c2.Prof.Steps, c1.Ret, c2.Ret)
	}
	if !reflect.DeepEqual(c1.Prof.ObjAccess, c2.Prof.ObjAccess) {
		t.Error("cached ObjAccess differs")
	}
	if !reflect.DeepEqual(c1.Prof.ObjBytes, c2.Prof.ObjBytes) {
		t.Error("cached ObjBytes differs")
	}
}

// TestStoreBudgetErrorReproducedWarm pins the budget-determinism rule: a
// profile cached under a generous budget must not mask the BudgetError a
// cold run under a tight budget produces.
func TestStoreBudgetErrorReproducedWarm(t *testing.T) {
	dir := t.TempDir()
	prepCached(t, "fir", dir) // warm the cache with the default budget
	restart(t, dir)

	b, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	_, err = PrepareOpts(nil, b.Name, b.Source, Options{CacheDir: dir, MaxSteps: 10})
	var be *profile.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("warm tight-budget Prepare err = %v, want *profile.BudgetError", err)
	}
}

// TestStoreCorruptionEquivalence pins graceful degradation: flipping a
// byte in the middle of the artifact log must change nothing but wall
// time — the damaged records degrade to recomputes and results stay
// DeepEqual with the no-cache reference.
func TestStoreCorruptionEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := machine.Paper2Cluster(5)
	ref, err := RunAllSchemes(prepBench(t, "fir"), cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAllSchemes(prepCached(t, "fir", dir), cfg, Options{Workers: 1, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	restart(t, dir)

	path := filepath.Join(dir, store.LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c := prepCached(t, "fir", dir)
	got, err := RunAllSchemes(c, cfg, Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flatAll(ref), flatAll(got)) {
		t.Error("corrupted-cache results differ from no-cache reference")
	}
}

// TestModuleHash pins that the content hash tracks the IR: identical
// sources agree, different sources differ.
func TestModuleHash(t *testing.T) {
	fir := prepBench(t, "fir")
	fir2 := prepBench(t, "fir")
	if moduleHash(fir.Mod) != moduleHash(fir2.Mod) {
		t.Error("identical compiles hash differently")
	}
	raw := prepBench(t, "rawcaudio")
	if moduleHash(fir.Mod) == moduleHash(raw.Mod) {
		t.Error("distinct modules collide")
	}
}

// TestValueCodecRoundtrips pins each artifact codec: encode∘decode is the
// identity and foreign bytes are rejected (never misread as another type).
func TestValueCodecRoundtrips(t *testing.T) {
	l := rhop.Locks{3: 1, 7: 0, 12: 1}
	lb, err := lockCodec{}.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := (lockCodec{}).Decode(lb); err != nil || !reflect.DeepEqual(got, l) {
		t.Fatalf("locks roundtrip = (%v, %v)", got, err)
	}

	asg := []int{0, 1, 1, 0, 3}
	pb, err := partCodec{}.Encode(asg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := (partCodec{}).Decode(pb); err != nil || !reflect.DeepEqual(got, asg) {
		t.Fatalf("part roundtrip = (%v, %v)", got, err)
	}

	pair := [2]int64{123456, -7}
	sb, err := schedCodec{}.Encode(pair)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := (schedCodec{}).Decode(sb); err != nil || got.([2]int64) != pair {
		t.Fatalf("sched roundtrip = (%v, %v)", got, err)
	}

	// Cross-type and garbage bytes must all fail decode.
	bad := [][]byte{lb, {0xFF, 0x01}, nil, {byte('S')}}
	for _, b := range bad {
		if _, err := (partCodec{}).Decode(b); err == nil {
			t.Errorf("part decode accepted foreign bytes %v", b)
		}
	}
	if _, err := (lockCodec{}).Decode(append(append([]byte(nil), lb...), 0x00)); err == nil {
		t.Error("locks decode accepted trailing garbage")
	}
}

// TestProfileCodecRoundtrip pins the module-relative Profile encoding on a
// real benchmark profile.
func TestProfileCodecRoundtrip(t *testing.T) {
	c := prepBench(t, "fir")
	b := encodeProfile(c.Mod, c.Prof, c.Ret)
	p, ret, err := decodeProfile(c.Mod, b)
	if err != nil {
		t.Fatal(err)
	}
	if ret != c.Ret || p.Steps != c.Prof.Steps {
		t.Fatalf("ret/steps = %d/%d, want %d/%d", ret, p.Steps, c.Ret, c.Prof.Steps)
	}
	// Same module, so pointer-keyed maps compare directly — except that the
	// encoder drops zero-frequency blocks.
	for blk, n := range c.Prof.BlockFreq {
		if n != 0 && p.BlockFreq[blk] != n {
			t.Fatalf("block %v freq %d, want %d", blk, p.BlockFreq[blk], n)
		}
	}
	if !reflect.DeepEqual(p.OpObj, c.Prof.OpObj) {
		t.Error("OpObj did not roundtrip")
	}
	if !reflect.DeepEqual(p.ObjBytes, c.Prof.ObjBytes) || !reflect.DeepEqual(p.ObjAccess, c.Prof.ObjAccess) {
		t.Error("object maps did not roundtrip")
	}
	// A flipped byte must fail decode, not misread.
	b[len(b)/2] ^= 0xFF
	if _, _, err := decodeProfile(c.Mod, b); err == nil {
		t.Skip("flip landed in a spot the varint stream tolerates") // rare; shape checks cover most offsets
	}
}
