package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/gdp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/obs"
	"mcpart/internal/opt"
	"mcpart/internal/pointsto"
	"mcpart/internal/profile"
	"mcpart/internal/progen"
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
// (store hits, memo promotions, no profiling execution, and GDP's data
// partition loaded rather than bisected, relabelled for a mesh too).
func TestStoreColdWarmEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg, mesh := machine.Paper2Cluster(5), machine.Mesh4(5)

	refC := prepBench(t, "fir")
	ref, err := RunAllSchemes(refC, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refMesh, err := RunGDP(refC, mesh, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	coldC := prepCached(t, "fir", dir)
	cold, err := RunAllSchemes(coldC, cfg, Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGDP(coldC, mesh, Options{Workers: 1, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	restart(t, dir)

	warmC := prepCached(t, "fir", dir)
	reg := obs.NewRegistry()
	warm, err := RunAllSchemes(warmC, cfg, Options{Workers: 1, CacheDir: dir, Observer: obs.New(reg, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	warmMesh, err := RunGDP(warmC, mesh, Options{Workers: 1, CacheDir: dir, Observer: obs.New(reg, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(flatAll(ref), flatAll(cold)) {
		t.Error("cold disk-cache results differ from no-cache reference")
	}
	if !reflect.DeepEqual(flatAll(ref), flatAll(warm)) {
		t.Error("warm disk-cache results differ from no-cache reference")
	}
	if !reflect.DeepEqual(flatResult(refMesh), flatResult(warmMesh)) {
		t.Error("warm mesh4 GDP result differs from no-cache reference")
	}
	for _, r := range []*Result{warm.GDP, warmMesh} {
		if n := r.Metrics.Value("fm_bisections"); n != 0 {
			t.Errorf("warm GDP run bisected %d graphs; its data partition should come from the store", n)
		}
		if n := r.Metrics.Value("gdp_data_hits"); n != 1 {
			t.Errorf("warm GDP run: gdp_data_hits = %d, want 1", n)
		}
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

// damagingTier is the store's data tier with a fault on the write path:
// every record it stores is damaged first.
type damagingTier struct {
	*dataTier
	damage func(good []byte) []byte
	puts   int
}

func (d *damagingTier) Put(key []byte, e *gdp.DataEntry) {
	d.puts++
	d.s.Put(d.key(key), d.damage(encodeData(e)))
}

// TestStoreDataRecordCorruption pins the 'D' record's degradation: a
// stored data partition whose bytes no longer decode (truncated, or
// another record's payload) is dropped and recomputed, results stay
// DeepEqual with the no-cache reference, and the recompute heals the
// record for the next process.
func TestStoreDataRecordCorruption(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	ref, err := RunGDP(prepBench(t, "fir"), cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	damages := map[string]func([]byte) []byte{
		"truncated": func(good []byte) []byte { return good[:len(good)-1] },
		"foreign": func([]byte) []byte {
			b, _ := partCodec{}.Encode([]int{0, 1})
			return b
		},
	}
	for name, damage := range damages {
		dir := t.TempDir()
		c := prepCached(t, "fir", dir)
		dt := &damagingTier{
			dataTier: &dataTier{s: c.store, prefix: keyPrefix(moduleHash(c.Mod)), nobj: len(c.Mod.Objects)},
			damage:   damage,
		}
		c.dataParts.SetTier(dt)
		if _, err := RunGDP(c, cfg, Options{Workers: 1, CacheDir: dir}); err != nil {
			t.Fatal(err)
		}
		if dt.puts != 1 {
			t.Fatalf("cold GDP run stored %d data partitions, want 1", dt.puts)
		}
		restart(t, dir)

		for _, pass := range []string{"damaged", "healed"} {
			reg := obs.NewRegistry()
			got, err := RunGDP(prepCached(t, "fir", dir), cfg, Options{Workers: 1, CacheDir: dir, Observer: obs.New(reg, nil, nil)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(flatResult(ref), flatResult(got)) {
				t.Errorf("%s record, %s pass: result differs from the no-cache reference", name, pass)
			}
			loaded := got.Metrics.Value("gdp_data_hits") == 1
			if loaded != (pass == "healed") {
				t.Errorf("%s record, %s pass: data partition loaded = %v", name, pass, loaded)
			}
			restart(t, dir)
		}
	}
}

// TestModuleHash pins that the content hash tracks the IR — identical
// sources agree, different sources differ — and that it is the SHA-256 of
// ir.Print's bytes, so stores written before the hash was streamed stay
// warm.
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

	srcs := map[string]string{}
	for _, b := range bench.All() {
		srcs[b.Name] = b.Source
	}
	for seed := int64(0); seed < 40; seed++ {
		srcs[fmt.Sprint("seed", seed)] = progen.Generate(seed, progen.Options{})
	}
	for name, src := range srcs {
		m, err := mclang.CompileUnrolled(src, name, DefaultUnroll)
		if err != nil {
			t.Fatal(err)
		}
		opt.Optimize(m)
		pointsto.Analyze(m)
		want := sha256.Sum256([]byte(ir.Print(m)))
		if got := moduleHash(m); got != hex.EncodeToString(want[:]) {
			t.Errorf("%s: module hash %s, want hex(sha256(ir.Print)) %x", name, got, want)
		}
	}
}

// TestModuleHashedOncePerCompiled pins that a Prepare with a cache
// directory hashes its module once, cold and warm, and that scheme runs
// over the Compiled reuse that hash.
func TestModuleHashedOncePerCompiled(t *testing.T) {
	dir := t.TempDir()
	for _, state := range []string{"cold", "warm"} {
		before := moduleHashes.Load()
		c := prepCached(t, "fir", dir)
		if _, err := RunGDP(c, machine.Paper2Cluster(5), Options{Workers: 1, CacheDir: dir}); err != nil {
			t.Fatal(err)
		}
		if n := moduleHashes.Load() - before; n != 1 {
			t.Errorf("%s: Prepare plus a scheme run hashed the module %d times, want 1", state, n)
		}
		restart(t, dir)
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

	e := &gdp.DataEntry{
		Part:       []int{0, 1, 1, 0, 1},
		Groups:     [][]int{{0, 3}, {1, 2}, {4}},
		GroupBytes: []int64{16, 8, 4},
		Cut:        7,
		PairW:      []int64{0, 7, 7, 0},
	}
	db := encodeData(e)
	if got, err := decodeData(db, 5, 2); err != nil || !reflect.DeepEqual(got, e) {
		t.Fatalf("data roundtrip = (%+v, %v)", got, err)
	}
	// Foreign, truncated, padded and wrong-shape bytes must fail decode.
	mutate := func(f func(e *gdp.DataEntry)) []byte {
		m := &gdp.DataEntry{
			Part:       append([]int(nil), e.Part...),
			Groups:     [][]int{{0, 3}, {1, 2}, {4}},
			GroupBytes: append([]int64(nil), e.GroupBytes...),
			Cut:        e.Cut,
			PairW:      append([]int64(nil), e.PairW...),
		}
		f(m)
		return encodeData(m)
	}
	badData := map[string][]byte{
		"locks record":      lb,
		"part record":       pb,
		"empty":             nil,
		"truncated":         db[:len(db)-1],
		"trailing garbage":  append(append([]byte(nil), db...), 0x00),
		"part out of range": mutate(func(m *gdp.DataEntry) { m.Part[2] = 2 }),
		"negative part":     mutate(func(m *gdp.DataEntry) { m.Part[2] = -1 }),
		"object twice":      mutate(func(m *gdp.DataEntry) { m.Groups[2] = []int{3} }),
		"object missing": mutate(func(m *gdp.DataEntry) {
			m.Groups, m.GroupBytes = m.Groups[:2], m.GroupBytes[:2]
		}),
		"unsorted group":   mutate(func(m *gdp.DataEntry) { m.Groups[0] = []int{3, 0} }),
		"asymmetric pairs": mutate(func(m *gdp.DataEntry) { m.PairW[2] = 6 }),
		"cut mismatch":     mutate(func(m *gdp.DataEntry) { m.Cut = 8 }),
		"nonzero diagonal": mutate(func(m *gdp.DataEntry) { m.PairW[0] = 1 }),
	}
	for name, b := range badData {
		if _, err := decodeData(b, 5, 2); err == nil {
			t.Errorf("data decode accepted %s", name)
		}
	}
	for _, shape := range [][2]int{{4, 2}, {6, 2}, {5, 3}, {5, 1}} {
		if _, err := decodeData(db, shape[0], shape[1]); err == nil {
			t.Errorf("data decode accepted a record for 5 objects on 2 clusters as %d objects on %d", shape[0], shape[1])
		}
	}

	// Cross-type and garbage bytes must all fail decode.
	bad := [][]byte{lb, {0xFF, 0x01}, nil, {byte('S')}, db}
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
