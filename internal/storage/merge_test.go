package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"impliance/internal/docmodel"
	"impliance/internal/storage/compress"
)

// Delete/tombstone and segment-merge semantics. Merge runs on both read
// paths for sealed segments and both codecs; tombstone semantics run on
// the full conformance matrix.

func mergeBackends() []backendConfig {
	return []backendConfig{
		{name: "segment", pread: true, opts: func(dir string) Options {
			return Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 2048}
		}},
		{name: "mmap", opts: func(dir string) Options {
			return Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 2048}
		}},
		// Flate shrinks the repetitive test docs ~10×; a smaller segment
		// threshold keeps the roll-over count comparable.
		{name: "mmap-flate", opts: func(dir string) Options {
			return Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 512, Codec: compress.Flate}
		}},
	}
}

func forEachMergeBackend(t *testing.T, fn func(t *testing.T, bc backendConfig)) {
	t.Helper()
	runBackends(t, mergeBackends(), fn)
}

// padToSeal appends enough throwaway documents to roll every earlier
// frame into a sealed segment (2048-byte segments, ~200-byte docs).
func padToSeal(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Put(confDoc(100000 + i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeleteTombstoneSemantics(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendConfig) {
		dir := t.TempDir()
		s, err := Open(1, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		k1, _ := s.Put(confDoc(1))
		k2, _ := s.Put(confDoc(2))

		// Delete of a missing document fails.
		if _, err := s.Delete(docmodel.DocID{Origin: 9, Seq: 9}); !errors.Is(err, ErrNotFound) {
			t.Errorf("delete missing: %v", err)
		}
		tk, err := s.Delete(k1.Doc)
		if err != nil {
			t.Fatal(err)
		}
		if tk.Ver != 2 {
			t.Errorf("tombstone version = %d, want 2", tk.Ver)
		}
		// Idempotent.
		if tk2, err := s.Delete(k1.Doc); err != nil || tk2 != tk {
			t.Errorf("re-delete: %v, %v", tk2, err)
		}
		// Point reads see absence; the version history keeps the tombstone.
		if _, err := s.Get(k1.Doc); !errors.Is(err, ErrNotFound) {
			t.Errorf("get deleted: %v", err)
		}
		if d, err := s.GetVersion(tk); err != nil || !d.Deleted {
			t.Errorf("tombstone version: %v, %v", d, err)
		}
		if d, err := s.GetVersion(docmodel.VersionKey{Doc: k1.Doc, Ver: 1}); err != nil || d.Deleted {
			t.Errorf("pre-delete version: %v, %v", d, err)
		}
		// Scans and metadata reflect the deletion.
		seen := 0
		s.Scan(func(d *docmodel.Document) bool {
			if d.ID == k1.Doc {
				t.Error("scan surfaced a deleted document")
			}
			seen++
			return true
		})
		if seen != 1 {
			t.Errorf("scan saw %d docs, want 1", seen)
		}
		dels := map[docmodel.DocID]bool{}
		s.EachMeta(func(m DocMeta) bool {
			dels[m.ID] = m.Deleted
			return true
		})
		if !dels[k1.Doc] || dels[k2.Doc] {
			t.Errorf("EachMeta deleted flags = %v", dels)
		}
		// A new version resurrects the document.
		re := confDoc(42)
		re.ID = k1.Doc
		rk, err := s.Put(re)
		if err != nil {
			t.Fatal(err)
		}
		if rk.Ver != 3 {
			t.Errorf("resurrect version = %d, want 3", rk.Ver)
		}
		if d, err := s.Get(k1.Doc); err != nil || d.First("/i").IntVal() != 42 {
			t.Errorf("resurrected get: %v, %v", d, err)
		}
		// And delete again, persisting this time across a restart.
		if _, err := s.Delete(k1.Doc); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if bc.opts(dir).Dir == "" {
			return
		}
		s2, err := Open(1, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if _, err := s2.Get(k1.Doc); !errors.Is(err, ErrNotFound) {
			t.Errorf("deleted doc visible after restart: %v", err)
		}
		if d, err := s2.Get(k2.Doc); err != nil || d.First("/i").IntVal() != 2 {
			t.Errorf("surviving doc after restart: %v, %v", d, err)
		}
	})
}

func TestMergeUnsupportedBackends(t *testing.T) {
	m, err := Open(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Merge(); !errors.Is(err, ErrMergeUnsupported) {
		t.Errorf("memory merge: %v", err)
	}
}

func TestMergeNoopBelowThreshold(t *testing.T) {
	s, err := Open(1, Options{Dir: t.TempDir(), Backend: BackendSegment, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put(confDoc(1)); err != nil {
		t.Fatal(err)
	}
	merged, err := s.Merge()
	if err != nil || merged {
		t.Errorf("merge with no sealed segments = %v, %v", merged, err)
	}
}

func TestMergeReclaimsTombstonedChains(t *testing.T) {
	forEachMergeBackend(t, func(t *testing.T, bc backendConfig) {
		dir := t.TempDir()
		// A one-document hot cache sends reads to the segments, so the
		// reads below map them before the merge replaces their files.
		opts := bc.opts(dir)
		opts.HotCacheDocs = 1
		s, err := Open(1, opts)
		if err != nil {
			t.Fatal(err)
		}
		var keys []docmodel.VersionKey
		for i := 0; i < 30; i++ {
			k, err := s.Put(confDoc(i))
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
		for i := 0; i < 10; i++ {
			if _, err := s.Delete(keys[i].Doc); err != nil {
				t.Fatal(err)
			}
		}
		// Roll the tombstones into sealed segments so the whole chain is
		// inside the merged set.
		padToSeal(t, s, 30)
		for _, k := range keys[10:] {
			if _, err := s.Get(k.Doc); err != nil {
				t.Fatal(err)
			}
		}
		preLive, preDisk := s.StorageFootprint()
		if preDisk < preLive {
			t.Fatalf("disk %d < live %d before merge", preDisk, preLive)
		}
		merged, err := s.Merge()
		if err != nil {
			t.Fatal(err)
		}
		if !merged {
			t.Fatal("merge did not fold")
		}
		postLive, postDisk := s.StorageFootprint()
		if postDisk >= preDisk {
			t.Errorf("disk after merge %d, want < %d", postDisk, preDisk)
		}
		if postLive >= preLive {
			t.Errorf("live after merge %d, want < %d (tombstoned chains dropped)", postLive, preLive)
		}
		check := func(s *Store, when string) {
			t.Helper()
			for i, k := range keys {
				d, err := s.Get(k.Doc)
				if i < 10 {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("%s: reclaimed doc %d resurfaced: %v, %v", when, i, d, err)
					}
					continue
				}
				if err != nil || d.First("/i").IntVal() != int64(i) {
					t.Fatalf("%s: survivor %d: %v, %v", when, i, d, err)
				}
			}
		}
		check(s, "live")
		// Writes keep working after the fold.
		if _, err := s.Put(confDoc(777)); err != nil {
			t.Fatal(err)
		}
		s.Close()

		// A merged-away chain must never be resurrected by replay.
		s2, err := Open(1, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		check(s2, "after restart")
		if got, want := s2.Len(), 30-10+30+1; got != want {
			t.Errorf("Len after restart = %d, want %d", got, want)
		}
	})
}

func TestMergeRetentionDropsOldVersions(t *testing.T) {
	forEachMergeBackend(t, func(t *testing.T, bc backendConfig) {
		dir := t.TempDir()
		opts := bc.opts(dir)
		opts.RetainVersions = 2
		s, err := Open(1, opts)
		if err != nil {
			t.Fatal(err)
		}
		k, err := s.Put(confDoc(1))
		if err != nil {
			t.Fatal(err)
		}
		for v := 2; v <= 6; v++ {
			u := confDoc(v)
			u.ID = k.Doc
			if _, err := s.Put(u); err != nil {
				t.Fatal(err)
			}
		}
		padToSeal(t, s, 30)
		if merged, err := s.Merge(); err != nil || !merged {
			t.Fatalf("merge = %v, %v", merged, err)
		}
		check := func(s *Store, when string) {
			t.Helper()
			for v := uint32(1); v <= 4; v++ {
				if _, err := s.GetVersion(docmodel.VersionKey{Doc: k.Doc, Ver: v}); !errors.Is(err, ErrNotFound) {
					t.Errorf("%s: v%d survived retention: %v", when, v, err)
				}
			}
			for v := uint32(5); v <= 6; v++ {
				d, err := s.GetVersion(docmodel.VersionKey{Doc: k.Doc, Ver: v})
				if err != nil || d.First("/i").IntVal() != int64(v) {
					t.Errorf("%s: retained v%d: %v, %v", when, v, d, err)
				}
			}
			if d, err := s.Get(k.Doc); err != nil || d.First("/i").IntVal() != 6 {
				t.Errorf("%s: head: %v, %v", when, d, err)
			}
		}
		check(s, "live")
		s.Close()
		// Retention must hold across restart: dropped versions stay gone.
		s2, err := Open(1, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		check(s2, "after restart")
	})
}

// TestMergeCrashAtCommitRollsForward simulates a crash immediately after
// the merge-commit marker rename (the commit point): the staged merged
// segment and the marker exist, the input segments are still in place.
// Open must roll the merge forward — staged file renamed in, inputs
// removed, marker gone — and serve the full corpus.
func TestMergeCrashAtCommitRollsForward(t *testing.T) {
	forEachMergeBackend(t, func(t *testing.T, bc backendConfig) {
		dir := t.TempDir()
		s, err := Open(1, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		var keys []docmodel.VersionKey
		for i := 0; i < 30; i++ {
			k, err := s.Put(confDoc(i))
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
		s.Close()

		// Stage what Merge would have staged: all sealed segments (the
		// ones with indexes) concatenated at the lowest ordinal. Frames
		// are copied verbatim — a keep-everything merge.
		idxs, _ := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
		if len(idxs) < 2 {
			t.Fatalf("need >= 2 sealed segments, have %d", len(idxs))
		}
		sort.Strings(idxs)
		var merged []int
		staged, err := os.Create(filepath.Join(dir, "staging"))
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range idxs {
			name := filepath.Base(idx)
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".idx"))
			if err != nil {
				t.Fatalf("parse %q: %v", name, err)
			}
			merged = append(merged, n)
			f, err := os.Open(strings.TrimSuffix(idx, ".idx") + ".log")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(staged, f); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		staged.Close()
		dest := merged[0]
		be := newSegmentBackend(dir, compress.None, false, 2048)
		if err := os.Rename(filepath.Join(dir, "staging"), be.segPath(dest)+".mrg"); err != nil {
			t.Fatal(err)
		}
		// No staged index: roll-forward must cope (the segment is scanned
		// and its index rebuilt on open).
		if err := be.writeMarker(dest, merged); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(1, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		for i, k := range keys {
			d, err := s2.Get(k.Doc)
			if err != nil || d.First("/i").IntVal() != int64(i) {
				t.Fatalf("doc %d after roll-forward: %v, %v", i, d, err)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "merge-commit")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("marker survived roll-forward: %v", err)
		}
		for _, n := range merged[1:] {
			if _, err := os.Stat(be.segPath(n)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("merged input segment %d survived roll-forward", n)
			}
		}
		if strays, _ := filepath.Glob(filepath.Join(dir, "*.mrg")); len(strays) != 0 {
			t.Errorf("staging leftovers: %v", strays)
		}
	})
}

// TestMergeStagingSweptWithoutMarker: staged .mrg files with no commit
// marker are a dead uncommitted merge; open deletes them and the
// original segments stay authoritative.
func TestMergeStagingSweptWithoutMarker(t *testing.T) {
	forEachMergeBackend(t, func(t *testing.T, bc backendConfig) {
		dir := t.TempDir()
		s, err := Open(1, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		var keys []docmodel.VersionKey
		for i := 0; i < 30; i++ {
			k, err := s.Put(confDoc(i))
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
		s.Close()
		for _, name := range []string{"seg-0000.log.mrg", "seg-0000.idx.mrg"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("partial merge"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s2, err := Open(1, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		for i, k := range keys {
			d, err := s2.Get(k.Doc)
			if err != nil || d.First("/i").IntVal() != int64(i) {
				t.Fatalf("doc %d after stray sweep: %v, %v", i, d, err)
			}
		}
		if strays, _ := filepath.Glob(filepath.Join(dir, "*.mrg")); len(strays) != 0 {
			t.Errorf("stray staging survived open: %v", strays)
		}
	})
}

// TestMmapColdReads: a re-opened segment store decodes on demand through
// its sealed segments' mappings, reads the active segment with pread,
// and falls back to pread for a sealed segment that cannot be mapped.
func TestMmapColdReads(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 2048}
	s, err := Open(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	var keys []docmodel.VersionKey
	for i := 0; i < 60; i++ {
		k, err := s.Put(confDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	s.Close()

	readAll := func(s *Store, what string) {
		t.Helper()
		for i, k := range keys {
			d, err := s.Get(k.Doc)
			if err != nil || d.First("/i").IntVal() != int64(i) {
				t.Fatalf("%s cold read %d: %v, %v", what, i, d, err)
			}
		}
	}
	s2, err := Open(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.BackendName() != "segment" {
		t.Fatalf("backend = %q", s2.BackendName())
	}
	if res := s2.ResidentDecoded(); res != 0 {
		t.Fatalf("resident after reopen = %d, want 0", res)
	}
	readAll(s2, "mapped")
	be := s2.be.(*segmentBackend)
	if b, err := mmapFile(be.segPath(be.sealed[0])); err == nil && len(b) > 0 {
		munmapBytes(b)
		mapped := 0
		for _, m := range be.maps {
			if m != nil {
				mapped++
			}
		}
		if mapped != len(be.sealed) {
			t.Errorf("mapped %d of %d sealed segments", mapped, len(be.sealed))
		}
	}
	// Keep writing (the active segment is read with pread) and reopen.
	k, err := s2.Put(confDoc(60))
	if err != nil {
		t.Fatal(err)
	}
	keys = append(keys, k)
	s2.Close()

	s3, err := Open(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Len(); got != 61 {
		t.Errorf("Len after round trip = %d, want 61", got)
	}
	// Negative-cache every sealed segment, as an unmappable file or a
	// platform without mmap would: every read must fall back to pread.
	be = s3.be.(*segmentBackend)
	for _, seg := range be.sealed {
		be.maps[seg] = nil
	}
	readAll(s3, "pread")
	if len(be.readers) != len(be.sealed)+1 {
		t.Errorf("pread handles = %d, want one per sealed segment plus the active one (%d sealed)", len(be.readers), len(be.sealed))
	}
}
