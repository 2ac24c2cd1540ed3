package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"impliance/internal/docmodel"
	"impliance/internal/storage/compress"
)

// segmentBackend is the scalable layout: one active append segment plus
// immutable sealed segments ("seg-000N.log", size-based roll-over). Each
// sealed segment carries a sidecar frame index ("seg-000N.idx") listing
// every frame's offset and document identity, so re-opening the store
// reads indexes — not documents — for everything but the active tail.
// It is lazy: the Store drops decoded bodies and re-reads cold versions
// through ReadAt, keeping resident decoded documents bounded by the hot
// cache instead of total history.
//
// Sealed segments are immutable, so cold reads go through one read-only
// MAP_SHARED mapping per sealed segment: a page-cache access with no
// read(2) round trip and no heap buffer for the compressed frame (with
// the "none" codec the payload is a zero-copy view of the mapping). The
// active segment, and any segment that cannot be mapped (an empty file,
// or a platform without mmap), is read with pread. A view never outlives
// its mapping: ReadAt runs under the Store's read lock and DecodeDocument
// copies the view before the lock is released, while unmapping happens
// only inside compaction/merge swaps (under the write lock) or Close.
//
// Crash-safety discipline:
//
//   - Only the active segment can have a torn tail; it is trimmed on
//     open. Sealing syncs the data file before the index is written, so
//     sealed segments are always complete.
//   - The index is written tmp + rename; a crash between data sync and
//     index rename leaves a sealed segment without an index, which open
//     rebuilds from its frames.
//   - Compaction rewrites one sealed segment at a time to "*.tmp" and
//     renames over the original inside the commit; a crash mid-compact
//     leaves only tmp files, removed on open.
type segmentBackend struct {
	mu        sync.Mutex
	dir       string
	codec     compress.Codec
	syncEvery bool
	segBytes  int64

	active    *os.File
	activeSeg int
	activeOff int64
	pending   []segIdxEntry // frames in the active segment, for seal time
	sealed    []int         // sealed segment ordinals, ascending

	// readers and maps cache each segment's read path: a read-only
	// handle for pread, and for sealed segments a mapping built on first
	// cold read. A nil mapping is a negative entry — the segment could
	// not be mapped, and its reads fall back to pread permanently, not
	// per call. Segments append or stay immutable, so neither goes stale
	// except across a compaction or merge swap, which drops both. Guarded
	// by their own leaf mutex (acquired under be.mu, never the other way
	// round) so concurrent ReadAt calls never serialize on be.mu.
	readersMu sync.Mutex
	readers   map[int]*os.File
	maps      map[int][]byte
	// readActive mirrors activeSeg for the read path: the active segment
	// is always the highest ordinal, so every lower one is sealed.
	readActive int
}

// segIdxEntry is one frame's record in a segment index.
type segIdxEntry struct {
	off  int64
	info FrameInfo
}

func newSegmentBackend(dir string, codec compress.Codec, syncEvery bool, segBytes int64) *segmentBackend {
	return &segmentBackend{
		dir: dir, codec: codec, syncEvery: syncEvery, segBytes: segBytes,
		readers: map[int]*os.File{}, maps: map[int][]byte{},
	}
}

func (s *segmentBackend) Name() string { return "segment" }

func (s *segmentBackend) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%04d.log", n))
}

func (s *segmentBackend) idxPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%04d.idx", n))
}

// open discovers segments, replays them (indexes where possible, frame
// scans otherwise), and readies the active segment for appends.
func (s *segmentBackend) open(fn func(FrameMeta) error) error {
	// A committed-but-interrupted merge is finished (and uncommitted
	// staging swept) before discovery, so replay only ever sees the
	// pre-merge or post-merge file set, never a mix.
	if err := s.recoverMerge(); err != nil {
		return err
	}
	segs, err := s.discover()
	if err != nil {
		return err
	}
	activeSeg := -1
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		if _, err := os.Stat(s.idxPath(last)); errors.Is(err, os.ErrNotExist) {
			// The newest segment has no index: it is the active tail.
			activeSeg = last
		}
	}
	for _, seg := range segs {
		isActive := seg == activeSeg
		entries, fromIndex, err := s.loadSegment(seg, isActive, fn)
		if err != nil {
			return err
		}
		switch {
		case isActive:
			s.pending = entries
		case !fromIndex:
			// Sealed segment whose index was missing or corrupt: the scan
			// above rebuilt the entries — persist them so the next open is
			// an index read again.
			if err := s.writeIndex(seg, entries); err != nil {
				return err
			}
			s.sealed = append(s.sealed, seg)
		default:
			s.sealed = append(s.sealed, seg)
		}
	}
	if activeSeg < 0 {
		activeSeg = 0
		if len(segs) > 0 {
			activeSeg = segs[len(segs)-1] + 1
		}
	}
	f, err := os.OpenFile(s.segPath(activeSeg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: stat segment: %w", err)
	}
	s.active, s.activeSeg, s.activeOff = f, activeSeg, st.Size()
	s.setReadActive(activeSeg)
	return nil
}

// discover lists segment ordinals ascending and removes crash leftovers.
func (s *segmentBackend) discover() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var segs []int
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Crash mid-compact or mid-seal: the tmp was never renamed, so
			// the original (or the data file alone) is still authoritative.
			_ = os.Remove(filepath.Join(s.dir, name))
			continue
		}
		num, ok := strings.CutPrefix(name, "seg-")
		if !ok {
			continue
		}
		num, ok = strings.CutSuffix(num, ".log")
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(num); err == nil && n >= 0 {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// loadSegment replays one segment. Sealed segments with a valid index
// emit header-only metas (no data read at all); otherwise the frames are
// scanned, headers parsed, and — for the active segment — a torn tail
// trimmed.
func (s *segmentBackend) loadSegment(seg int, isActive bool, fn func(FrameMeta) error) (entries []segIdxEntry, fromIndex bool, err error) {
	if !isActive {
		if entries, err := s.readIndex(seg); err == nil {
			// Frame sizes fall out of the offset deltas (frames are laid
			// out back to back); the last entry runs to end of file.
			st, err := os.Stat(s.segPath(seg))
			if err != nil {
				return nil, false, fmt.Errorf("storage: %w", err)
			}
			for i, e := range entries {
				end := st.Size()
				if i+1 < len(entries) {
					end = entries[i+1].off
				}
				m := FrameMeta{Loc: Locator{Seg: seg, Off: e.off}, Size: int(end - e.off), FrameInfo: e.info}
				if err := fn(m); err != nil {
					return nil, false, err
				}
			}
			return entries, true, nil
		}
	}
	f, err := os.Open(s.segPath(seg))
	if err != nil {
		return nil, false, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	fr := compress.NewFrameReader(f)
	var off int64
	for {
		raw, n, err := fr.Next()
		if err == io.EOF {
			return entries, false, nil
		}
		if err != nil {
			if isActive {
				// Torn tail from a crash mid-append: trim it.
				if terr := os.Truncate(s.segPath(seg), off); terr != nil {
					return nil, false, fmt.Errorf("storage: truncate torn segment: %w", terr)
				}
				return entries, false, nil
			}
			// Sealed segments are synced before their index is written;
			// an unreadable frame is real corruption, not a crash artifact.
			return nil, false, fmt.Errorf("storage: sealed segment %d corrupt at %d: %w", seg, off, err)
		}
		hdr, err := docmodel.DecodeDocumentHeader(raw)
		if err != nil {
			if isActive {
				if terr := os.Truncate(s.segPath(seg), off); terr != nil {
					return nil, false, fmt.Errorf("storage: truncate bad segment record: %w", terr)
				}
				return entries, false, nil
			}
			return nil, false, fmt.Errorf("storage: sealed segment %d undecodable at %d: %w", seg, off, err)
		}
		e := segIdxEntry{off: off, info: FrameInfo{
			ID: hdr.ID, Ver: hdr.Version, Class: hdr.Class, Ann: hdr.IsAnnotation(), Del: hdr.Deleted,
		}}
		entries = append(entries, e)
		if err := fn(FrameMeta{Loc: Locator{Seg: seg, Off: off}, Size: n, FrameInfo: e.info}); err != nil {
			return nil, false, err
		}
		off += int64(n)
	}
}

func (s *segmentBackend) Append(raw []byte, info FrameInfo) (Locator, int, error) {
	frame, err := compress.EncodeFrame(s.codec, raw)
	if err != nil {
		return Locator{}, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.activeOff > 0 && s.activeOff+int64(len(frame)) > s.segBytes {
		if err := s.sealLocked(); err != nil {
			return Locator{}, 0, err
		}
	}
	loc := Locator{Seg: s.activeSeg, Off: s.activeOff}
	if _, err := s.active.Write(frame); err != nil {
		return Locator{}, 0, fmt.Errorf("storage: append segment: %w", err)
	}
	s.pending = append(s.pending, segIdxEntry{off: s.activeOff, info: info})
	s.activeOff += int64(len(frame))
	if s.syncEvery {
		if err := s.active.Sync(); err != nil {
			return Locator{}, 0, fmt.Errorf("storage: sync segment: %w", err)
		}
	}
	return loc, len(frame), nil
}

// sealLocked closes the active segment into a sealed one: sync the
// data, persist the frame index, open the next segment, then swap.
//
// The order carries two invariants. Crash-safety: an index only ever
// exists for a fully synced file (so "has an index" ⇒ "cannot be torn",
// and the next segment file only exists after that index — the highest
// index-less segment really is the only appendable one). Availability:
// every failure before the swap leaves the active segment open and
// state unchanged, so a transient error (e.g. disk full) is retried by
// the next Append instead of wedging the store; a retry after the index
// was already written simply rewrites it, and no frame can sneak in
// between (the roll check runs before the frame write, under s.mu).
// Caller holds s.mu.
func (s *segmentBackend) sealLocked() error {
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("storage: seal sync: %w", err)
	}
	if err := s.writeIndex(s.activeSeg, s.pending); err != nil {
		return err
	}
	next := s.activeSeg + 1
	f, err := os.OpenFile(s.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: roll segment: %w", err)
	}
	old := s.active
	s.sealed = append(s.sealed, s.activeSeg)
	s.active, s.activeSeg, s.activeOff, s.pending = f, next, 0, nil
	s.setReadActive(next)
	// The data is already synced; a close failure must not undo the seal.
	if err := old.Close(); err != nil {
		return fmt.Errorf("storage: seal close: %w", err)
	}
	return nil
}

// ReadAt reads a frame through its sealed segment's mapping, or with
// pread from the active segment and from segments that could not be
// mapped.
func (s *segmentBackend) ReadAt(loc Locator) ([]byte, error) {
	b, f, err := s.source(loc.Seg)
	if err != nil {
		return nil, fmt.Errorf("storage: segment read: %w", err)
	}
	var raw []byte
	switch {
	case b == nil:
		// The section's upper bound only caps the reader; EOF past the
		// real end surfaces as a (torn-)frame error below. Small buffer:
		// this is a single-frame point read, not a replay.
		raw, _, err = compress.NewFrameReaderSize(io.NewSectionReader(f, loc.Off, 1<<62), 4<<10).Next()
	case loc.Off < 0 || loc.Off >= int64(len(b)):
		err = fmt.Errorf("offset beyond mapping (%d bytes)", len(b))
	default:
		raw, _, err = compress.DecodeFrameAt(b[loc.Off:])
	}
	if err != nil {
		return nil, fmt.Errorf("storage: segment %d read at %d: %w", loc.Seg, loc.Off, err)
	}
	return raw, nil
}

// mapSegment maps a sealed segment read-only. Tests replace it with a
// function that maps nothing, to run the pread fallback that platforms
// without mmap take.
var mapSegment = mmapFile

// source returns a segment's cached read path: the mapping of a sealed
// segment, built on first use, or else a read-only handle for pread.
func (s *segmentBackend) source(seg int) ([]byte, *os.File, error) {
	s.readersMu.Lock()
	defer s.readersMu.Unlock()
	b, cached := s.maps[seg]
	if !cached && seg < s.readActive {
		// The active segment is never negatively cached: it may seal later.
		if b, _ = mapSegment(s.segPath(seg)); len(b) == 0 {
			b = nil
		}
		s.maps[seg] = b
	}
	if b != nil {
		return b, nil, nil
	}
	if f, ok := s.readers[seg]; ok {
		return nil, f, nil
	}
	f, err := os.Open(s.segPath(seg))
	if err != nil {
		return nil, nil, err
	}
	s.readers[seg] = f
	return nil, f, nil
}

func (s *segmentBackend) setReadActive(seg int) {
	s.readersMu.Lock()
	s.readActive = seg
	s.readersMu.Unlock()
}

// dropReader invalidates a segment's cached handle and mapping (its file
// was just renamed over or removed by compaction or merge; the old
// inode's offsets no longer match the remapped locators). It runs inside
// a commit swap holding the Store's write lock, so no reader holds a
// view of the mapping.
func (s *segmentBackend) dropReader(seg int) {
	s.readersMu.Lock()
	defer s.readersMu.Unlock()
	if f, ok := s.readers[seg]; ok {
		f.Close()
		delete(s.readers, seg)
	}
	if b := s.maps[seg]; b != nil {
		munmapBytes(b)
	}
	delete(s.maps, seg)
}

// Compact rewrites each sealed segment with the current codec, one
// commit per segment: the rewrite streams with no lock held (sealed
// segments are immutable), and only the rename + locator swap run inside
// the caller's lock. The active segment is the live WAL tail and is left
// alone.
func (s *segmentBackend) Compact(commit func(remap map[Locator]Locator, swap func() error) error) error {
	s.mu.Lock()
	sealed := append([]int{}, s.sealed...)
	s.mu.Unlock()
	for _, seg := range sealed {
		if err := s.compactSegment(seg, commit); err != nil {
			return err
		}
	}
	return nil
}

func (s *segmentBackend) compactSegment(seg int, commit func(remap map[Locator]Locator, swap func() error) error) error {
	src, err := os.Open(s.segPath(seg))
	if err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	defer src.Close()
	tmpPath := s.segPath(seg) + ".tmp"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	remap := map[Locator]Locator{}
	var entries []segIdxEntry
	fr := compress.NewFrameReader(src)
	var off, newOff int64
	for {
		raw, n, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(fmt.Errorf("storage: compact segment %d: %w", seg, err))
		}
		hdr, err := docmodel.DecodeDocumentHeader(raw)
		if err != nil {
			return fail(fmt.Errorf("storage: compact segment %d: %w", seg, err))
		}
		frame, err := compress.EncodeFrame(s.codec, raw)
		if err != nil {
			return fail(err)
		}
		if _, err := tmp.Write(frame); err != nil {
			return fail(fmt.Errorf("storage: compact write: %w", err))
		}
		remap[Locator{Seg: seg, Off: off}] = Locator{Seg: seg, Off: newOff}
		entries = append(entries, segIdxEntry{off: newOff, info: FrameInfo{
			ID: hdr.ID, Ver: hdr.Version, Class: hdr.Class, Ann: hdr.IsAnnotation(), Del: hdr.Deleted,
		}})
		off += int64(n)
		newOff += int64(len(frame))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("storage: compact sync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("storage: compact close: %w", err)
	}
	// The replacement index is built here, outside the commit — the
	// stall window below holds only three renames.
	idxTmpPath := s.idxPath(seg) + ".tmp"
	if err := s.writeIndexTo(idxTmpPath, entries); err != nil {
		os.Remove(tmpPath)
		return err
	}
	return commit(remap, func() error {
		// Invalidate the sidecar before touching the data file: a crash
		// (or index-rename failure) between the renames must leave a
		// segment whose index is *missing* — rebuilt from frames on the
		// next open — never one whose valid-CRC index describes the old
		// layout at stale offsets.
		if err := os.Remove(s.idxPath(seg)); err != nil && !errors.Is(err, os.ErrNotExist) {
			os.Remove(tmpPath)
			os.Remove(idxTmpPath)
			return fmt.Errorf("storage: compact drop index: %w", err)
		}
		if err := os.Rename(tmpPath, s.segPath(seg)); err != nil {
			os.Remove(idxTmpPath)
			return fmt.Errorf("storage: compact rename: %w", err)
		}
		s.dropReader(seg)
		// Best-effort: a failed index rename costs the next open a frame
		// scan, not correctness.
		_ = os.Rename(idxTmpPath, s.idxPath(seg))
		return nil
	})
}

func (s *segmentBackend) Close() error {
	s.readersMu.Lock()
	for seg, f := range s.readers {
		f.Close()
		delete(s.readers, seg)
	}
	for seg, b := range s.maps {
		if b != nil {
			munmapBytes(b)
		}
		delete(s.maps, seg)
	}
	s.readersMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		s.active.Close()
		s.active = nil
		return fmt.Errorf("storage: close sync: %w", err)
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// Segment index sidecar format:
//
//	magic "ISGX" | version 1 | count uvarint | entries... | crc32(le)
//	entry: off uvarint | origin uvarint | seq uvarint | ver uvarint |
//	       class byte | flags byte (bit0 = annotation, bit1 = tombstone)
//
// The crc covers everything before it; a short or mismatching file is
// treated as missing and rebuilt from the segment's frames.
var segIdxMagic = []byte("ISGX")

const segIdxVersion = 1

func (s *segmentBackend) writeIndex(seg int, entries []segIdxEntry) error {
	tmpPath := s.idxPath(seg) + ".tmp"
	if err := s.writeIndexTo(tmpPath, entries); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, s.idxPath(seg)); err != nil {
		return fmt.Errorf("storage: rename segment index: %w", err)
	}
	return nil
}

// writeIndexTo encodes and writes an index file at an arbitrary path —
// the tmp half of writeIndex, also used by compaction to build the
// replacement index outside the commit lock.
func (s *segmentBackend) writeIndexTo(path string, entries []segIdxEntry) error {
	var buf bytes.Buffer
	buf.Write(segIdxMagic)
	buf.WriteByte(segIdxVersion)
	var tmp [binary.MaxVarintLen64]byte
	put := func(u uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], u)]) }
	put(uint64(len(entries)))
	for _, e := range entries {
		put(uint64(e.off))
		put(uint64(e.info.ID.Origin))
		put(e.info.ID.Seq)
		put(uint64(e.info.Ver))
		buf.WriteByte(e.info.Class)
		var flags byte
		if e.info.Ann {
			flags |= 1
		}
		if e.info.Del {
			flags |= 2
		}
		buf.WriteByte(flags)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("storage: write segment index: %w", err)
	}
	return nil
}

func (s *segmentBackend) readIndex(seg int) ([]segIdxEntry, error) {
	data, err := os.ReadFile(s.idxPath(seg))
	if err != nil {
		return nil, err
	}
	if len(data) < len(segIdxMagic)+1+4 || !bytes.Equal(data[:4], segIdxMagic) || data[4] != segIdxVersion {
		return nil, fmt.Errorf("storage: bad segment index %d", seg)
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("storage: segment index %d checksum mismatch", seg)
	}
	r := bytes.NewReader(body[5:])
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("storage: segment index %d: %w", seg, err)
	}
	entries := make([]segIdxEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e segIdxEntry
		vals := [4]uint64{}
		for j := range vals {
			if vals[j], err = binary.ReadUvarint(r); err != nil {
				return nil, fmt.Errorf("storage: segment index %d: %w", seg, err)
			}
		}
		class, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("storage: segment index %d: %w", seg, err)
		}
		flags, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("storage: segment index %d: %w", seg, err)
		}
		e.off = int64(vals[0])
		e.info = FrameInfo{
			ID:    docmodel.DocID{Origin: uint32(vals[1]), Seq: vals[2]},
			Ver:   uint32(vals[3]),
			Class: class,
			Ann:   flags&1 != 0,
			Del:   flags&2 != 0,
		}
		entries = append(entries, e)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("storage: segment index %d trailing bytes", seg)
	}
	return entries, nil
}
