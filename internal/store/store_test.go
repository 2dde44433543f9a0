package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mcpart/internal/obs"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	key := []byte("k1")
	val := []byte("hello world")
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store must miss")
	}
	s.Put(key, val)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = (%q, %v), want (%q, true)", got, ok, val)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := open(t, dir, Options{})
	defer s2.Close()
	st := s2.Stats()
	if st.Entries != 50 || st.CorruptSkipped != 0 {
		t.Fatalf("reopened stats = %+v, want 50 entries, 0 corrupt", st)
	}
	for i := 0; i < 50; i++ {
		got, ok := s2.Get([]byte(fmt.Sprintf("key-%d", i)))
		if !ok || string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key-%d = (%q, %v) after reopen", i, got, ok)
		}
	}
}

// TestSupersedingPutLastWins pins the append-only update path: the index
// keeps the newest record for a key after MarkCorrupt forces a rewrite,
// both live and across a reopen.
func TestSupersedingPutLastWins(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	key := []byte("k")
	s.Put(key, []byte("old"))
	// A plain duplicate Put is a no-op (the value under a key is
	// canonical)...
	s.Put(key, []byte("ignored"))
	if got, _ := s.Get(key); string(got) != "old" {
		t.Fatalf("duplicate Put replaced value: %q", got)
	}
	// ...but after the payload is marked corrupt, the next Put appends a
	// superseding record.
	s.MarkCorrupt(key)
	s.Put(key, []byte("new"))
	if got, ok := s.Get(key); !ok || string(got) != "new" {
		t.Fatalf("superseding Put: (%q, %v)", got, ok)
	}
	s.Close()

	s2 := open(t, dir, Options{})
	defer s2.Close()
	if got, ok := s2.Get(key); !ok || string(got) != "new" {
		t.Fatalf("last-wins after reopen: (%q, %v)", got, ok)
	}
}

func TestMaxBytesShedsWrites(t *testing.T) {
	// Small cap: header (8) + one ~116-byte record fits, a second does not.
	s := open(t, t.TempDir(), Options{MaxBytes: 160})
	defer s.Close()
	val := make([]byte, 100)
	s.Put([]byte("a"), val)
	s.Put([]byte("b"), val)
	st := s.Stats()
	if st.Writes != 1 || st.DroppedFull != 1 {
		t.Fatalf("stats = %+v, want 1 write / 1 dropped", st)
	}
	if _, ok := s.Get([]byte("a")); !ok {
		t.Fatal("first record must be readable")
	}
	if _, ok := s.Get([]byte("b")); ok {
		t.Fatal("shed record must miss")
	}
}

// TestGetFromPending pins that write-behind records are readable before
// any flush (the buffer is part of the logical log).
func TestGetFromPending(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	s.Put([]byte("k"), []byte("v"))
	fi, err := os.Stat(s.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != headerSize {
		t.Fatalf("record flushed eagerly (file %d bytes); want write-behind", fi.Size())
	}
	if got, ok := s.Get([]byte("k")); !ok || string(got) != "v" {
		t.Fatalf("pending Get = (%q, %v)", got, ok)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fi, _ = os.Stat(s.f.Name())
	if fi.Size() <= headerSize {
		t.Fatal("Flush did not write the record")
	}
}

// TestAutoFlushBeyondThreshold pins the write-behind trigger.
func TestAutoFlushBeyondThreshold(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	s.Put([]byte("key-long-enough"), make([]byte, flushBytes))
	fi, err := os.Stat(s.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == headerSize {
		t.Fatal("pending buffer beyond flushBytes must flush")
	}
}

// TestConcurrentPutGet races Puts and Gets on ten keys whose values are a
// quarter of flushBytes each, so automatic flushes run under the race too.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("k-%d", i%20))
				val := append([]byte(fmt.Sprintf("v-%d", i%20)), make([]byte, flushBytes/4)...)
				if i%2 == 0 {
					s.Put(key, val)
				} else if got, ok := s.Get(key); ok && !bytes.Equal(got, val) {
					t.Errorf("key %q returned %q", key, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.CorruptSkipped != 0 {
		t.Fatalf("corruption under concurrency: %+v", st)
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Put([]byte("k"), []byte("v"))
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("nil store must miss")
	}
	s.MarkCorrupt([]byte("k"))
	s.SetObserver(nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Stats() != (Stats{}) {
		t.Fatal("nil stats must be zero")
	}
}

func TestObserverMirrors(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	o := obs.New(obs.NewRegistry(), nil, nil)
	s.SetObserver(o)
	s.Put([]byte("k"), []byte("v"))
	s.Get([]byte("k"))
	s.Get([]byte("absent"))
	s.MarkCorrupt([]byte("k"))
	snap := o.Registry().Snapshot()
	for name, want := range map[string]int64{
		"store_hits":            1,
		"store_misses":          1,
		"store_writes":          1,
		"store_corrupt_skipped": 1,
	} {
		if got := snap.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Value("store_bytes") <= 0 {
		t.Error("store_bytes not mirrored")
	}
}

func TestSharedRegistry(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenShared(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenShared(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("OpenShared must return one handle per dir")
	}
	s1.Put([]byte("k"), []byte("v"))
	if st, ok := SharedStats(dir); !ok || st.Writes != 1 {
		t.Fatalf("SharedStats = (%+v, %v)", st, ok)
	}
	if err := FlushShared(dir); err != nil {
		t.Fatal(err)
	}
	if err := DropShared(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := SharedStats(dir); ok {
		t.Fatal("stats must be gone after DropShared")
	}
	// Reopen rebuilds the index from disk.
	s3, err := OpenShared(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer DropShared(dir)
	if s3 == s1 {
		t.Fatal("DropShared must force a fresh handle")
	}
	if got, ok := s3.Get([]byte("k")); !ok || string(got) != "v" {
		t.Fatalf("reopened shared Get = (%q, %v)", got, ok)
	}
	if _, ok := SharedStats(filepath.Join(dir, "other")); ok {
		t.Fatal("unknown dir must report no stats")
	}
}
