// Package store is the persistent, content-addressed artifact cache
// behind the memoization engine (DESIGN.md §12): an append-only on-disk
// record log plus an in-memory index rebuilt on open. It is the disk tier
// that survives process restarts — a warm `gdpbench` re-run or a restarted
// service pays index-rebuild and deserialization cost instead of the full
// exhaustive-search cost.
//
// The contract mirrors internal/memo's: the store can change wall time and
// hit counters, never values. Three mechanisms enforce that:
//
//   - content addressing: the index key is SHA-256 over the full canonical
//     key material (format version × module hash × machine/options keys ×
//     computation key), so two records collide only if their inputs are
//     byte-identical;
//   - re-keying on read: every record stores its complete key bytes, and
//     Get compares them against the requested key before returning the
//     value — a hash collision or a corrupt record degrades to a miss,
//     never to a wrong value;
//   - corruption is never fatal: records carry a magic number, explicit
//     lengths, and a CRC32. A truncated tail, a flipped byte, a wrong
//     magic, or a wrong format version makes Open (or Get) skip the bad
//     bytes, count them in CorruptSkipped, and fall back to a cold cache.
//
// Writes are write-behind: Put appends to an in-memory pending buffer that
// Flush (explicit, or automatic beyond flushBytes) appends to the
// log file. The log is append-only: once a corrupt record's index entry is
// dropped, the next recompute's Put appends a fresh record for its key, and
// the newest offset wins on rebuild. That is how a record that went corrupt
// on disk heals. The dead bytes it leaves behind stay in the log, which
// Options.MaxBytes bounds.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"mcpart/internal/defaults"
	"mcpart/internal/obs"
)

// Format identity. Bump FormatVersion whenever the record framing or any
// value encoding changes shape: version is part of both the file header
// and the hashed key material, so old logs simply stop hitting.
const (
	// Magic opens every artifact log file.
	Magic = "MCPS"
	// FormatVersion is the current log format generation.
	FormatVersion = 1
	// recMagic opens every record frame.
	recMagic uint32 = 0xA57C0DE1
	// headerSize is len(Magic) + 4 version bytes.
	headerSize = 8
	// recHeaderSize is magic + keyLen + valLen.
	recHeaderSize = 12
	// maxComponentLen bounds a single key or value; anything larger in a
	// frame header is treated as corruption, which keeps a flipped length
	// byte from triggering a giant allocation.
	maxComponentLen = 1 << 28
)

// DefaultMaxBytes is Options.MaxBytes' default (the usual non-positive →
// default sentinel, see internal/defaults): it caps the log at 1 GiB; the
// tools' -cachemaxbytes flag overrides it.
const DefaultMaxBytes = 1 << 30

// flushBytes is the write-behind threshold: Put flushes the pending
// buffer to the log file once it grows past this.
const flushBytes = 256 << 10

// LogName is the artifact log's file name inside the cache directory.
const LogName = "artifacts.mcs"

// Options tunes a Store. The zero value selects every default.
type Options struct {
	// MaxBytes caps the log file (durable plus pending bytes); when a Put
	// would grow past it, the write is dropped — the log is append-only,
	// so the bound sheds new work instead of evicting old. Non-positive
	// selects DefaultMaxBytes.
	MaxBytes int64
}

func (o Options) maxBytes() int64 { return defaults.Int64(o.MaxBytes, DefaultMaxBytes) }

// Store is an append-only, content-addressed artifact log with an
// in-memory index. A nil *Store is accepted by every method and behaves as
// a cache that never hits and drops every write, so callers can thread an
// optional store without branching. All methods are safe for concurrent
// use.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	opts Options

	// size is the durable log length; pending holds appended-but-unflushed
	// records at logical offsets [size, size+len(pending)).
	size    int64
	pending []byte
	index   map[[sha256.Size]byte]int64 // key hash -> logical record offset

	// ioErr latches the first write failure: the store keeps serving reads
	// but stops accepting writes (a broken disk degrades the cache, never
	// the pipeline).
	ioErr error

	hits, misses, writes, corrupt, dropped uint64
	bytesWritten                           uint64

	// Observer mirrors (nil defaults are no-ops; see SetObserver).
	oHits, oMisses, oWrites, oCorrupt, oBytes *obs.Counter
}

// Open opens (creating if needed) the artifact log in dir and rebuilds the
// index by scanning every record. Corrupt or truncated records are counted
// and skipped, never fatal: the worst corruption degrades to an empty
// (cold) cache. The one hard failure mode is the filesystem itself —
// an unreadable directory or uncreatable file returns an error.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, LogName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{f: f, opts: opts, index: make(map[[sha256.Size]byte]int64)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load validates the header and scans the record log, rebuilding the
// index. It truncates the logical end of the log at the first unparseable
// frame so subsequent appends keep the log well-formed.
func (s *Store) load() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fileSize := fi.Size()
	if fileSize < headerSize {
		// New (or hopelessly short) file: start fresh.
		if fileSize != 0 {
			s.corrupt++
		}
		return s.reset()
	}
	var hdr [headerSize]byte
	if _, err := s.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if string(hdr[:4]) != Magic || binary.LittleEndian.Uint32(hdr[4:]) != FormatVersion {
		// Wrong magic or a different format generation: the whole log is
		// unusable for this build. Degrade to a cold cache.
		s.corrupt++
		return s.reset()
	}
	off := int64(headerSize)
	for off+recHeaderSize <= fileSize {
		var rh [recHeaderSize]byte
		if _, err := s.f.ReadAt(rh[:], off); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		keyLen := int64(binary.LittleEndian.Uint32(rh[4:8]))
		valLen := int64(binary.LittleEndian.Uint32(rh[8:12]))
		if binary.LittleEndian.Uint32(rh[0:4]) != recMagic ||
			keyLen == 0 || keyLen > maxComponentLen || valLen > maxComponentLen {
			// Unparseable frame: the rest of the log cannot be trusted.
			s.corrupt++
			return s.truncate(off)
		}
		end := off + recHeaderSize + keyLen + valLen + 4
		if end > fileSize {
			// Truncated tail (a crash mid-flush): drop the partial record.
			s.corrupt++
			return s.truncate(off)
		}
		rec := make([]byte, end-off)
		if _, err := s.f.ReadAt(rec, off); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		body := rec[:len(rec)-4]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rec[len(rec)-4:]) {
			// Flipped byte mid-record: skip just this record — the frame
			// lengths still locate the next one. (If the flipped byte was
			// a length, the next frame's magic check catches it above.)
			s.corrupt++
			off = end
			continue
		}
		key := body[recHeaderSize : recHeaderSize+keyLen]
		// Last record for a key wins.
		s.index[sha256.Sum256(key)] = off
		off = end
	}
	if off < fileSize {
		// Trailing garbage shorter than a frame header.
		s.corrupt++
		return s.truncate(off)
	}
	s.size = fileSize
	return nil
}

// reset discards the log contents and writes a fresh header (corruption
// degrade path; the caller already counted the corruption).
func (s *Store) reset() error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], FormatVersion)
	if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.size = headerSize
	return nil
}

// truncate cuts the log at off, dropping an unparseable tail so appends
// resume from a well-formed boundary.
func (s *Store) truncate(off int64) error {
	if err := s.f.Truncate(off); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.size = off
	return nil
}

// SetObserver mirrors the store's counters into o's registry (metrics
// store_hits, store_misses, store_writes, store_corrupt_skipped,
// store_bytes) from this call on. A nil observer detaches. Safe to call
// concurrently; last writer wins.
func (s *Store) SetObserver(o *obs.Observer) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.oHits = o.Counter("store_hits")
	s.oMisses = o.Counter("store_misses")
	s.oWrites = o.Counter("store_writes")
	s.oCorrupt = o.Counter("store_corrupt_skipped")
	s.oBytes = o.Counter("store_bytes")
	s.mu.Unlock()
}

// Get returns the value stored under key. Every read re-validates the
// record — frame magic, lengths, CRC, and a byte compare of the stored key
// against the requested key — so a corrupt record or a hash collision is a
// counted miss, never a wrong value.
func (s *Store) Get(key []byte) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	h := sha256.Sum256(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	off, ok := s.index[h]
	if !ok {
		s.misses++
		s.oMisses.Add(1)
		return nil, false
	}
	val, ok := s.readRecord(off, key)
	if !ok {
		// readRecord counted the corruption; drop the entry so the next
		// recompute's Put can heal it.
		delete(s.index, h)
		s.misses++
		s.oMisses.Add(1)
		return nil, false
	}
	s.hits++
	s.oHits.Add(1)
	return val, true
}

// readRecord loads and validates the record at logical offset off,
// returning its value bytes. Caller holds s.mu.
func (s *Store) readRecord(off int64, key []byte) ([]byte, bool) {
	read := func(p []byte, at int64) bool {
		if at >= s.size {
			// Pending (write-behind) region.
			i := at - s.size
			if i+int64(len(p)) > int64(len(s.pending)) {
				return false
			}
			copy(p, s.pending[i:])
			return true
		}
		if at+int64(len(p)) > s.size {
			return false
		}
		_, err := s.f.ReadAt(p, at)
		return err == nil
	}
	var rh [recHeaderSize]byte
	if !read(rh[:], off) {
		s.markCorrupt()
		return nil, false
	}
	keyLen := int64(binary.LittleEndian.Uint32(rh[4:8]))
	valLen := int64(binary.LittleEndian.Uint32(rh[8:12]))
	if binary.LittleEndian.Uint32(rh[0:4]) != recMagic ||
		keyLen == 0 || keyLen > maxComponentLen || valLen > maxComponentLen {
		s.markCorrupt()
		return nil, false
	}
	rec := make([]byte, recHeaderSize+keyLen+valLen+4)
	if !read(rec, off) {
		s.markCorrupt()
		return nil, false
	}
	body := rec[:len(rec)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rec[len(rec)-4:]) {
		s.markCorrupt()
		return nil, false
	}
	storedKey := body[recHeaderSize : recHeaderSize+keyLen]
	if string(storedKey) != string(key) {
		// SHA-256 collision or index pointing at the wrong record: the
		// re-key check turns it into a miss.
		s.markCorrupt()
		return nil, false
	}
	return body[recHeaderSize+keyLen:], true
}

func (s *Store) markCorrupt() {
	s.corrupt++
	s.oCorrupt.Add(1)
}

// MarkCorrupt records that the value stored under key failed a
// higher-level decode (the record framing was intact but the payload was
// not usable) and drops the index entry so the next recompute overwrites
// it.
func (s *Store) MarkCorrupt(key []byte) {
	if s == nil {
		return
	}
	h := sha256.Sum256(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.index, h)
	s.markCorrupt()
}

// Put appends a record for key to the write-behind buffer and indexes it.
// A key that is already indexed is left as it is. Writes beyond
// Options.MaxBytes, or after a write error, are dropped — the store bounds
// disk, it never fails the computation that produced the value.
func (s *Store) Put(key, val []byte) {
	if s == nil || len(key) == 0 || int64(len(key)) > maxComponentLen || int64(len(val)) > maxComponentLen {
		return
	}
	h := sha256.Sum256(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ioErr != nil {
		s.dropped++
		return
	}
	if _, ok := s.index[h]; ok {
		// The value under a key is canonical (content-addressed), so a
		// duplicate Put has nothing new to say.
		return
	}
	recLen := int64(recHeaderSize + len(key) + len(val) + 4)
	if s.size+int64(len(s.pending))+recLen > s.opts.maxBytes() {
		s.dropped++
		return
	}
	off := s.size + int64(len(s.pending))
	start := len(s.pending)
	s.pending = binary.LittleEndian.AppendUint32(s.pending, recMagic)
	s.pending = binary.LittleEndian.AppendUint32(s.pending, uint32(len(key)))
	s.pending = binary.LittleEndian.AppendUint32(s.pending, uint32(len(val)))
	s.pending = append(s.pending, key...)
	s.pending = append(s.pending, val...)
	s.pending = binary.LittleEndian.AppendUint32(s.pending, crc32.ChecksumIEEE(s.pending[start:]))
	s.index[h] = off
	s.writes++
	s.oWrites.Add(1)
	s.bytesWritten += uint64(recLen)
	s.oBytes.Add(recLen)
	if len(s.pending) >= flushBytes {
		s.flushLocked()
	}
}

// Flush appends the write-behind buffer to the log file. It returns the
// first write error the store has seen (after which writes are dropped).
func (s *Store) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.ioErr
}

// flushLocked appends pending bytes at s.size. Caller holds s.mu. On a
// partial write the durable size advances by what landed; the next Open's
// scanner will skip the torn record (that is what the per-record CRC and
// the truncated-tail handling are for).
func (s *Store) flushLocked() {
	if s.ioErr != nil || len(s.pending) == 0 {
		return
	}
	n, err := s.f.WriteAt(s.pending, s.size)
	s.size += int64(n)
	if err != nil {
		s.ioErr = fmt.Errorf("store: %w", err)
		// Offsets beyond s.size now point at lost bytes; drop them so
		// reads cannot touch the void.
		for h, off := range s.index {
			if off >= s.size {
				delete(s.index, h)
			}
		}
	}
	s.pending = s.pending[:0]
}

// Close flushes and closes the log file.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.flushLocked()
	err := s.ioErr
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.mu.Unlock()
	return err
}

// Stats is a point-in-time snapshot of the store counters. Like
// memo.Stats, the counts describe work saved and disk used, never results.
type Stats struct {
	// Hits counts Gets served from a validated record.
	Hits uint64
	// Misses counts Gets that found no (valid) record.
	Misses uint64
	// Writes counts records appended (including not-yet-flushed ones).
	Writes uint64
	// CorruptSkipped counts records rejected by validation: bad frame,
	// bad CRC, key mismatch, or a failed higher-level decode
	// (MarkCorrupt). Each one degraded to a recompute, never an error.
	CorruptSkipped uint64
	// DroppedFull counts writes shed by the MaxBytes bound or after a
	// write error.
	DroppedFull uint64
	// BytesWritten is the record bytes appended by this process.
	BytesWritten uint64
	// LogBytes is the current logical log length (durable + pending).
	LogBytes int64
	// Entries is the number of indexed records.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the counters. A nil store reports zeroes.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:           s.hits,
		Misses:         s.misses,
		Writes:         s.writes,
		CorruptSkipped: s.corrupt,
		DroppedFull:    s.dropped,
		BytesWritten:   s.bytesWritten,
		LogBytes:       s.size + int64(len(s.pending)),
		Entries:        len(s.index),
	}
}
