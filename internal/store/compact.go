// compact.go rewrites the append-only artifact log without its shadowed
// records. The log never overwrites in place — a superseding Put, a healed
// MarkCorrupt entry, or a CRC-failed frame all leave dead bytes behind —
// which is harmless for one-shot CLI runs but grows without bound under a
// long-running daemon. Compact copies only the live (indexed) records into
// a temp file next to the log and atomically renames it over the original,
// so a crash at any point leaves either the old intact log or the new
// intact log, never a mix:
//
//   - crash before the rename: the temp file is garbage; Open removes it
//     and the old log (untouched) is loaded as usual;
//   - crash after the rename: the new log is complete and fsynced; Open
//     loads it like any other log.
//
// Compaction is a wall-time/disk optimization with the package's usual
// contract: it changes LogBytes and the counters, never values. Every
// record is CRC-verified as it is copied; one that rotted since load is
// dropped (counted corrupt), exactly as a Get would have treated it.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
)

// compactSuffix names the temp file Compact writes next to the log. A
// leftover file with this suffix is a crash-mid-compaction remnant that
// Open deletes.
const compactSuffix = ".compact"

// Compact rewrites the log keeping only live records, reclaiming shadowed
// bytes. It flushes pending writes first, so the whole log is durable
// before the copy starts. On success it reports the bytes reclaimed; on
// failure the original log and index are left untouched (and the temp file
// removed), so a failed compaction degrades to "no compaction", never to a
// broken store. A store that has latched a write error refuses to compact.
func (s *Store) Compact() (reclaimed int64, err error) {
	if s == nil {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	if s.ioErr != nil {
		return 0, s.ioErr
	}

	// Collect live records in ascending offset order so the new log keeps
	// the original append order (deterministic output for a given index).
	type liveRec struct {
		h   [sha256.Size]byte
		ref recRef
	}
	live := make([]liveRec, 0, len(s.index))
	for h, ref := range s.index {
		live = append(live, liveRec{h: h, ref: ref})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ref.off < live[j].ref.off })

	tmpPath := s.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: compact: %w", err)
	}
	fail := func(e error) (int64, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return 0, fmt.Errorf("store: compact: %w", e)
	}

	var hdr [headerSize]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], FormatVersion)
	if _, err := tmp.WriteAt(hdr[:], 0); err != nil {
		return fail(err)
	}
	newIndex := make(map[[sha256.Size]byte]recRef, len(live))
	var newLive int64
	off := int64(headerSize)
	for _, lr := range live {
		rec := make([]byte, lr.ref.length)
		if _, err := s.f.ReadAt(rec, lr.ref.off); err != nil {
			return fail(err)
		}
		if !validFrame(rec) {
			// The record rotted on disk since the index was built: drop it
			// (a Get would have missed anyway) rather than carry the
			// corruption into the new log.
			s.markCorrupt()
			continue
		}
		if _, err := tmp.WriteAt(rec, off); err != nil {
			return fail(err)
		}
		newIndex[lr.h] = recRef{off: off, length: lr.ref.length}
		newLive += lr.ref.length
		off += lr.ref.length
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	// Atomic switch: rename the temp over the log while keeping the temp's
	// file handle — after the rename that handle IS the new log, so no
	// reopen race exists. The old handle (now an unlinked inode) closes.
	if err := os.Rename(tmpPath, s.path); err != nil {
		return fail(err)
	}
	oldSize := s.size
	s.f.Close()
	s.f = tmp
	s.size = off
	s.index = newIndex
	s.liveBytes = newLive
	reclaimed = oldSize - off
	s.compactions++
	s.bytesReclaimed += uint64(reclaimed)
	s.observer.Counter("store_compactions").Add(1)
	s.observer.Counter("store_bytes_reclaimed").Add(reclaimed)
	return reclaimed, nil
}

// validFrame re-verifies one complete record frame: magic, lengths
// consistent with the frame size, and CRC.
func validFrame(rec []byte) bool {
	if len(rec) < recHeaderSize+4 {
		return false
	}
	if binary.LittleEndian.Uint32(rec[0:4]) != recMagic {
		return false
	}
	keyLen := int64(binary.LittleEndian.Uint32(rec[4:8]))
	valLen := int64(binary.LittleEndian.Uint32(rec[8:12]))
	if keyLen == 0 || keyLen > maxComponentLen || valLen > maxComponentLen ||
		int64(len(rec)) != recHeaderSize+keyLen+valLen+4 {
		return false
	}
	body := rec[:len(rec)-4]
	return crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(rec[len(rec)-4:])
}
