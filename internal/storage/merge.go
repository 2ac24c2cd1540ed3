// Segment merge/GC: fold every sealed segment into one, carrying
// forward only the frames the Store's plan keeps. Compaction
// (compactSegment in segment.go) re-frames in place and drops nothing;
// merge is the reclamation half — superseded duplicate frames,
// retention-expired history, and fully tombstoned chains stop occupying
// disk.
//
// Crash-safety is a roll-forward journal around one atomic commit point:
//
//  1. The merged data file and its index are staged as
//     "seg-%04d.log.mrg" / "seg-%04d.idx.mrg" at the LOWEST merged
//     ordinal (preserving replay order, and keeping the active segment
//     the highest ordinal so open's active-detection is undisturbed).
//  2. A "merge-commit" marker naming the destination and every merged
//     ordinal is written tmp+sync+rename. The rename is the commit.
//  3. rollForward renames the staged files into place and removes the
//     other merged segments' files, then the marker. Every step is
//     idempotent, so a crash anywhere after (2) is finished by the next
//     open; without a marker, stray *.mrg files are dead staging and are
//     deleted.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"impliance/internal/docmodel"
	"impliance/internal/storage/compress"
)

func (s *segmentBackend) markerPath() string {
	return filepath.Join(s.dir, "merge-commit")
}

// Merge folds the sealed segments into one for Store.Merge. planKeep
// runs once with the merged ordinals and returns the per-frame keep
// decision; commit mirrors Compact's contract, with the merged ordinals
// added so the caller can drop chain entries whose frames were not
// carried forward. The stream runs with no lock held (sealed segments
// are immutable and appends land in the active segment); only the swap
// — marker write, renames, state update — runs inside the caller's
// commit lock.
func (s *segmentBackend) Merge(minSegments int, planKeep func(segs []int) func(Locator) bool,
	commit func(merged []int, remap map[Locator]Locator, swap func() error) error) (bool, error) {
	if minSegments < 2 {
		minSegments = 2
	}
	s.mu.Lock()
	merged := append([]int{}, s.sealed...)
	s.mu.Unlock()
	if len(merged) < minSegments {
		return false, nil
	}
	dest := merged[0]
	keep := planKeep(merged)

	logTmp := s.segPath(dest) + ".mrg"
	idxTmp := s.idxPath(dest) + ".mrg"
	out, err := os.Create(logTmp)
	if err != nil {
		return false, fmt.Errorf("storage: merge: %w", err)
	}
	fail := func(err error) (bool, error) {
		out.Close()
		os.Remove(logTmp)
		os.Remove(idxTmp)
		return false, err
	}
	remap := map[Locator]Locator{}
	var entries []segIdxEntry
	var newOff int64
	for _, seg := range merged {
		src, err := os.Open(s.segPath(seg))
		if err != nil {
			return fail(fmt.Errorf("storage: merge: %w", err))
		}
		fr := compress.NewFrameReader(src)
		var off int64
		for {
			raw, n, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				src.Close()
				return fail(fmt.Errorf("storage: merge segment %d: %w", seg, err))
			}
			old := Locator{Seg: seg, Off: off}
			off += int64(n)
			if !keep(old) {
				continue
			}
			hdr, err := docmodel.DecodeDocumentHeader(raw)
			if err != nil {
				src.Close()
				return fail(fmt.Errorf("storage: merge segment %d: %w", seg, err))
			}
			frame, err := compress.EncodeFrame(s.codec, raw)
			if err != nil {
				src.Close()
				return fail(err)
			}
			if _, err := out.Write(frame); err != nil {
				src.Close()
				return fail(fmt.Errorf("storage: merge write: %w", err))
			}
			remap[old] = Locator{Seg: dest, Off: newOff}
			entries = append(entries, segIdxEntry{off: newOff, info: FrameInfo{
				ID: hdr.ID, Ver: hdr.Version, Class: hdr.Class, Ann: hdr.IsAnnotation(), Del: hdr.Deleted,
			}})
			newOff += int64(len(frame))
		}
		src.Close()
	}
	if err := out.Sync(); err != nil {
		return fail(fmt.Errorf("storage: merge sync: %w", err))
	}
	if err := out.Close(); err != nil {
		os.Remove(logTmp)
		return false, fmt.Errorf("storage: merge close: %w", err)
	}
	if err := s.writeIndexTo(idxTmp, entries); err != nil {
		os.Remove(logTmp)
		return false, err
	}

	err = commit(merged, remap, func() error {
		if err := s.writeMarker(dest, merged); err != nil {
			os.Remove(logTmp)
			os.Remove(idxTmp)
			return err
		}
		// Committed: from here failures are surfaced but the merge stands —
		// the next open's roll-forward finishes whatever rename was missed.
		if err := s.rollForward(dest, merged); err != nil {
			return err
		}
		in := map[int]bool{}
		for _, g := range merged {
			in[g] = true
		}
		s.mu.Lock()
		// Segments sealed while the merge streamed stay sealed behind the
		// merged one; the ordinal order (dest is lowest) is preserved.
		kept := []int{dest}
		for _, n := range s.sealed {
			if !in[n] {
				kept = append(kept, n)
			}
		}
		s.sealed = kept
		s.mu.Unlock()
		for _, seg := range merged {
			s.dropReader(seg)
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	return true, nil
}

// writeMarker atomically publishes the merge-commit marker. Its rename
// is the merge's single commit point.
func (s *segmentBackend) writeMarker(dest int, merged []int) error {
	var buf bytes.Buffer
	buf.WriteString(strconv.Itoa(dest))
	for _, n := range merged {
		buf.WriteByte(' ')
		buf.WriteString(strconv.Itoa(n))
	}
	buf.WriteByte('\n')
	tmp := s.markerPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: merge marker: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err == nil {
		err = f.Sync()
	} else {
		f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: merge marker: %w", err)
	}
	if err := os.Rename(tmp, s.markerPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: merge marker: %w", err)
	}
	return nil
}

// rollForward completes a committed merge. Idempotent: every step is
// skip-if-absent, so it can run once in-process right after the marker
// rename and again at the next open if a crash interrupted it.
func (s *segmentBackend) rollForward(dest int, merged []int) error {
	if _, err := os.Stat(s.segPath(dest) + ".mrg"); err == nil {
		// The stale index must go before the data rename: a crash in
		// between leaves a segment with no index (rebuilt by scan), never
		// a valid-CRC index describing the wrong layout.
		if err := os.Remove(s.idxPath(dest)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("storage: merge drop index: %w", err)
		}
		if err := os.Rename(s.segPath(dest)+".mrg", s.segPath(dest)); err != nil {
			return fmt.Errorf("storage: merge rename: %w", err)
		}
	}
	if _, err := os.Stat(s.idxPath(dest) + ".mrg"); err == nil {
		if err := os.Rename(s.idxPath(dest)+".mrg", s.idxPath(dest)); err != nil {
			return fmt.Errorf("storage: merge rename index: %w", err)
		}
	}
	for _, seg := range merged {
		if seg == dest {
			continue
		}
		if err := os.Remove(s.segPath(seg)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("storage: merge remove: %w", err)
		}
		if err := os.Remove(s.idxPath(seg)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("storage: merge remove index: %w", err)
		}
	}
	if err := os.Remove(s.markerPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: merge unmark: %w", err)
	}
	return nil
}

// recoverMerge runs at open, before segment discovery: finish a
// committed merge the crash interrupted, or sweep dead staging files
// from an uncommitted one.
func (s *segmentBackend) recoverMerge() error {
	data, err := os.ReadFile(s.markerPath())
	if errors.Is(err, os.ErrNotExist) {
		for _, pat := range []string{"seg-*.log.mrg", "seg-*.idx.mrg"} {
			matches, _ := filepath.Glob(filepath.Join(s.dir, pat))
			for _, m := range matches {
				_ = os.Remove(m)
			}
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: merge marker: %w", err)
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return fmt.Errorf("storage: malformed merge marker %q", string(data))
	}
	nums := make([]int, len(fields))
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			return fmt.Errorf("storage: malformed merge marker %q", string(data))
		}
		nums[i] = n
	}
	return s.rollForward(nums[0], nums[1:])
}

// DiskBytes sums the segment data files (indexes and staging excluded):
// the on-disk footprint StorageFootprint compares against live bytes.
func (s *segmentBackend) DiskBytes() (uint64, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "seg-*.log"))
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, m := range matches {
		if st, err := os.Stat(m); err == nil {
			total += uint64(st.Size())
		}
	}
	return total, nil
}
