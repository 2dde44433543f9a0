package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcpart/internal/obs"
)

// shadowedStore builds a store with n live records plus shadow bytes made
// the way a long-running daemon makes them: a record goes corrupt at a
// higher level (MarkCorrupt) and the recompute's Put heals it with a fresh
// record, leaving the old bytes dead in the log.
func shadowedStore(t *testing.T, dir string, n int) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Put(key(i), []byte(fmt.Sprintf("value-%d", i)))
	}
	// Shadow two records via the MarkCorrupt → heal cycle.
	for _, i := range []int{1, 3} {
		s.MarkCorrupt(key(i))
		s.Put(key(i), []byte(fmt.Sprintf("healed-%d", i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s
}

func key(i int) []byte { return []byte(fmt.Sprintf("compact-key-%d", i)) }

// TestCompactReclaimsShadow pins the core contract: compaction shrinks the
// log by exactly the shadowed bytes, keeps every live value readable (the
// healed values, not the superseded ones), and survives a process restart.
func TestCompactReclaimsShadow(t *testing.T) {
	dir := t.TempDir()
	s := shadowedStore(t, dir, 5)

	before := s.Stats()
	if before.ShadowBytes <= 0 {
		t.Fatalf("expected shadow bytes before compaction, got %+v", before)
	}
	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != before.ShadowBytes {
		t.Fatalf("reclaimed %d, want shadow %d", reclaimed, before.ShadowBytes)
	}
	after := s.Stats()
	if after.ShadowBytes != 0 || after.Compactions != 1 || after.BytesReclaimed != uint64(reclaimed) {
		t.Fatalf("post-compaction stats %+v", after)
	}
	if after.LogBytes != before.LogBytes-reclaimed {
		t.Fatalf("log %d -> %d, reclaimed %d", before.LogBytes, after.LogBytes, reclaimed)
	}
	checkLive := func(s *Store) {
		t.Helper()
		for i := 0; i < 5; i++ {
			want := fmt.Sprintf("value-%d", i)
			if i == 1 || i == 3 {
				want = fmt.Sprintf("healed-%d", i)
			}
			got, ok := s.Get(key(i))
			if !ok || !bytes.Equal(got, []byte(want)) {
				t.Fatalf("Get(%s) = %q, %v; want %q", key(i), got, ok, want)
			}
		}
	}
	checkLive(s)

	// A compacted log is a normal log: restart and read everything back.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkLive(s2)
	if st := s2.Stats(); st.CorruptSkipped != 0 || st.ShadowBytes != 0 {
		t.Fatalf("reopened compacted log reports corruption/shadow: %+v", st)
	}

	// The store keeps accepting writes after the handle swap.
	s2.Put([]byte("post-compact"), []byte("works"))
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get([]byte("post-compact")); !ok || string(got) != "works" {
		t.Fatalf("write after compaction: %q, %v", got, ok)
	}
}

// TestCompactObserverMetrics pins the store_compactions /
// store_bytes_reclaimed mirrors — and that they are registered lazily
// (absent until a compaction actually runs, so CLI metric goldens are
// unaffected).
func TestCompactObserverMetrics(t *testing.T) {
	s := shadowedStore(t, t.TempDir(), 4)
	defer s.Close()
	reg := obs.NewRegistry()
	s.SetObserver(obs.New(reg, nil, nil))
	if _, ok := reg.Snapshot().Get("store_compactions"); ok {
		t.Fatal("store_compactions registered before any compaction")
	}
	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Value("store_compactions"); got != 1 {
		t.Fatalf("store_compactions = %d, want 1", got)
	}
	if got := snap.Value("store_bytes_reclaimed"); got != reclaimed {
		t.Fatalf("store_bytes_reclaimed = %d, want %d", got, reclaimed)
	}
}

// TestCrashMidCompactionRecovery simulates dying between writing the temp
// file and the rename: the next Open must ignore (and remove) the partial
// temp and serve the original log intact — compaction is atomic or absent.
func TestCrashMidCompactionRecovery(t *testing.T) {
	dir := t.TempDir()
	s := shadowedStore(t, dir, 5)
	wantShadow := s.Stats().ShadowBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The "crash": a half-written temp next to the log (a valid header and
	// then torn garbage, the worst plausible remnant).
	tmp := filepath.Join(dir, LogName+compactSuffix)
	remnant := append([]byte(Magic), 1, 0, 0, 0)
	remnant = append(remnant, bytes.Repeat([]byte{0xAB}, 37)...)
	if err := os.WriteFile(tmp, remnant, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale compaction temp not removed: %v", err)
	}
	st := s2.Stats()
	if st.CorruptSkipped != 0 || st.Entries != 5 || st.ShadowBytes != wantShadow {
		t.Fatalf("recovered store stats %+v, want 5 clean entries, shadow %d", st, wantShadow)
	}
	for i := 0; i < 5; i++ {
		if _, ok := s2.Get(key(i)); !ok {
			t.Fatalf("Get(%s) missed after recovery", key(i))
		}
	}
	// And the interrupted compaction can simply be retried.
	if n, err := s2.Compact(); err != nil || n != wantShadow {
		t.Fatalf("retried compaction reclaimed %d, err %v, want %d", n, err, wantShadow)
	}
}

// TestCompactDropsRottedRecord pins that a record whose bytes rotted on
// disk after the index was built is dropped (and counted corrupt) during
// the copy instead of being carried into the new log.
func TestCompactDropsRottedRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put(key(0), []byte("first"))
	s.Put(key(1), []byte("second"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's key, behind the index's back.
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+recHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("rotted record survived compaction")
	}
	if got, ok := s.Get(key(1)); !ok || string(got) != "second" {
		t.Fatalf("intact record lost: %q, %v", got, ok)
	}
	if st := s.Stats(); st.CorruptSkipped == 0 {
		t.Fatalf("rot not counted: %+v", st)
	}
}
