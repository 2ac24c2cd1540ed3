package storage

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"impliance/internal/docmodel"
	"impliance/internal/storage/compress"
)

// The conformance suite: the segment store must provide the Store's
// semantics — versioning, recovery, torn-tail trimming, compaction
// crash-safety — under every codec and on both read paths for sealed
// segments. Each test runs against every configuration in
// conformanceBackends.

type backendConfig struct {
	name string
	opts func(dir string) Options
	// pread maps no sealed segment, so every read takes the pread
	// fallback that platforms without mmap use.
	pread bool
}

func conformanceBackends() []backendConfig {
	tiny := func(dir string) Options {
		return Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 2048}
	}
	tinyFlate := func(dir string) Options {
		return Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 2048, Codec: compress.Flate}
	}
	// Tiny segments force frequent roll-over so every test crosses
	// sealed-segment boundaries. The segment configurations read sealed
	// segments with pread; the mmap ones through their mappings. Both
	// read the active segment with pread.
	return []backendConfig{
		{name: "segment", opts: tiny, pread: true},
		{name: "segment-flate", opts: tinyFlate, pread: true},
		{name: "mmap", opts: tiny},
		{name: "mmap-flate", opts: tinyFlate},
	}
}

func forEachBackend(t *testing.T, fn func(t *testing.T, bc backendConfig)) {
	t.Helper()
	runBackends(t, conformanceBackends(), fn)
}

func runBackends(t *testing.T, bcs []backendConfig, fn func(t *testing.T, bc backendConfig)) {
	t.Helper()
	for _, bc := range bcs {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			if bc.pread {
				prev := mapSegment
				mapSegment = func(string) ([]byte, error) { return nil, nil }
				defer func() { mapSegment = prev }()
			}
			fn(t, bc)
		})
	}
}

func confDoc(i int) *docmodel.Document {
	return docWith(
		docmodel.F("i", docmodel.Int(int64(i))),
		docmodel.F("pad", docmodel.String(strings.Repeat("conformance payload ", 8))),
	)
}

// newestDataFile returns the store's active segment — the only file a
// crash mid-append can tear.
func newestDataFile(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no data files in %s", dir)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

func TestConformanceVersionSemantics(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendConfig) {
		s, err := Open(1, bc.opts(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		k1, err := s.Put(confDoc(1))
		if err != nil {
			t.Fatal(err)
		}
		upd := confDoc(10)
		upd.ID = k1.Doc
		k2, err := s.Put(upd)
		if err != nil {
			t.Fatal(err)
		}
		if k2.Ver != 2 {
			t.Fatalf("update version = %d", k2.Ver)
		}
		over := confDoc(99)
		over.ID, over.Version = k1.Doc, 1
		if _, err := s.Put(over); !errors.Is(err, ErrVersionExists) {
			t.Errorf("overwrite: %v", err)
		}
		gap := confDoc(99)
		gap.ID, gap.Version = k1.Doc, 5
		if _, err := s.Put(gap); !errors.Is(err, ErrVersionGap) {
			t.Errorf("gap: %v", err)
		}
		if d, err := s.Get(k1.Doc); err != nil || d.First("/i").IntVal() != 10 {
			t.Errorf("latest = %v, %v", d, err)
		}
		if d, err := s.GetVersion(docmodel.VersionKey{Doc: k1.Doc, Ver: 1}); err != nil || d.First("/i").IntVal() != 1 {
			t.Errorf("v1 = %v, %v", d, err)
		}
	})
}

func TestConformanceReplicaIdempotentOutOfOrder(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendConfig) {
		primary, err := Open(1, bc.opts(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer primary.Close()
		k, _ := primary.Put(confDoc(1))
		u := confDoc(2)
		u.ID = k.Doc
		primary.Put(u)
		v1, _ := primary.GetVersion(docmodel.VersionKey{Doc: k.Doc, Ver: 1})
		v2, _ := primary.GetVersion(docmodel.VersionKey{Doc: k.Doc, Ver: 2})

		replica, err := Open(2, bc.opts(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer replica.Close()
		// v2 before v1; re-delivery is a no-op.
		if err := replica.PutReplica(v2); err != nil {
			t.Fatal(err)
		}
		if err := replica.PutReplica(v2); err != nil {
			t.Fatal(err)
		}
		if d, err := replica.Get(k.Doc); err != nil || d.First("/i").IntVal() != 2 {
			t.Fatalf("latest after out-of-order: %v, %v", d, err)
		}
		if err := replica.PutReplica(v1); err != nil {
			t.Fatal(err)
		}
		if d, err := replica.GetVersion(docmodel.VersionKey{Doc: k.Doc, Ver: 1}); err != nil || d.First("/i").IntVal() != 1 {
			t.Errorf("backfilled v1: %v, %v", d, err)
		}
		if replica.VersionCount(k.Doc) != 2 {
			t.Errorf("replica versions = %d", replica.VersionCount(k.Doc))
		}
	})
}

func TestConformancePersistenceAndRecovery(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendConfig) {
		dir := t.TempDir()
		s, err := Open(7, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		var keys []docmodel.VersionKey
		for i := 0; i < 40; i++ {
			k, err := s.Put(confDoc(i))
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
		u := confDoc(1000)
		u.ID = keys[0].Doc
		s.Put(u)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(7, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if s2.Len() != 40 {
			t.Fatalf("recovered %d docs, want 40", s2.Len())
		}
		if s2.VersionCount(keys[0].Doc) != 2 {
			t.Error("recovered version chain wrong")
		}
		for i, k := range keys {
			want := int64(i)
			if i == 0 {
				want = 1000
			}
			d, err := s2.Get(k.Doc)
			if err != nil {
				t.Fatalf("Get(%s): %v", k.Doc, err)
			}
			if d.First("/i").IntVal() != want {
				t.Errorf("doc %d = %d, want %d", i, d.First("/i").IntVal(), want)
			}
		}
		if d, err := s2.GetVersion(docmodel.VersionKey{Doc: keys[0].Doc, Ver: 1}); err != nil || d.First("/i").IntVal() != 0 {
			t.Errorf("old version after recovery: %v, %v", d, err)
		}
		// Sequence continues without collision after recovery.
		k, err := s2.Put(confDoc(9999))
		if err != nil {
			t.Fatal(err)
		}
		if k.Doc.Seq <= 40 {
			t.Errorf("sequence reused after recovery: %v", k)
		}
	})
}

func TestConformanceTornTailRecovery(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendConfig) {
		dir := t.TempDir()
		s, err := Open(7, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := s.Put(confDoc(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		// Chop mid-frame in the newest data file to simulate a crash
		// during append.
		path := newestDataFile(t, dir)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() < 8 {
			t.Fatalf("newest data file too small to tear: %d", info.Size())
		}
		if err := os.Truncate(path, info.Size()-7); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(7, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if s2.Len() != 29 {
			t.Errorf("torn-tail recovery kept %d docs, want 29", s2.Len())
		}
		// Store keeps working after the trim.
		if _, err := s2.Put(confDoc(42)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceCompactPreservesEverything(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendConfig) {
		dir := t.TempDir()
		s, err := Open(7, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		k, _ := s.Put(confDoc(1))
		for i := 2; i <= 5; i++ {
			u := confDoc(i)
			u.ID = k.Doc
			if _, err := s.Put(u); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 30; i++ {
			if _, err := s.Put(confDoc(100 + i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		// Reads and writes still work after compaction (locators remapped).
		for v := 1; v <= 5; v++ {
			d, err := s.GetVersion(docmodel.VersionKey{Doc: k.Doc, Ver: uint32(v)})
			if err != nil || d.First("/i").IntVal() != int64(v) {
				t.Fatalf("post-compact v%d: %v, %v", v, d, err)
			}
		}
		if _, err := s.Put(confDoc(999)); err != nil {
			t.Fatal(err)
		}
		total, stall := s.CompactStats()
		if total == 0 {
			t.Error("compact accounted no wall time")
		}
		if stall > total {
			t.Errorf("stall %v exceeds total %v", stall, total)
		}
		s.Close()

		s2, err := Open(7, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if s2.VersionCount(k.Doc) != 5 {
			t.Errorf("compaction lost versions: %d", s2.VersionCount(k.Doc))
		}
		if s2.Len() != 32 {
			t.Errorf("docs after compact+put = %d, want 32", s2.Len())
		}
	})
}

// TestConformanceCrashMidCompactLeftovers: a crash mid-compact leaves
// temp files that were never renamed. Re-open must ignore and remove
// them, with the original data intact.
func TestConformanceCrashMidCompactLeftovers(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendConfig) {
		dir := t.TempDir()
		s, err := Open(7, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		var keys []docmodel.VersionKey
		for i := 0; i < 25; i++ {
			k, err := s.Put(confDoc(i))
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
		s.Close()

		// Manufacture the crash artifacts: half-written rewrite temps for
		// every data file (and, for segments, an index temp).
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(dir, f.Name()+".tmp"), []byte("partial rewrite"), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		s2, err := Open(7, bc.opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		for i, k := range keys {
			d, err := s2.Get(k.Doc)
			if err != nil || d.First("/i").IntVal() != int64(i) {
				t.Fatalf("doc %d after crash-leftover open: %v, %v", i, d, err)
			}
		}
		leftover, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if len(leftover) != 0 {
			t.Errorf("tmp leftovers survived open: %v", leftover)
		}
	})
}

// TestSegmentMissingIndexRebuilt: deleting a sealed segment's index
// sidecar must not lose data — open rebuilds the index from the
// segment's frames and re-persists it.
func TestSegmentMissingIndexRebuilt(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 2048}
	s, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	var keys []docmodel.VersionKey
	for i := 0; i < 40; i++ {
		k, err := s.Put(confDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	s.Close()

	idxs, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if err != nil || len(idxs) == 0 {
		t.Fatalf("no sealed segment indexes written (idxs=%v err=%v)", idxs, err)
	}
	sort.Strings(idxs)
	victim := idxs[0]
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, k := range keys {
		d, err := s2.Get(k.Doc)
		if err != nil || d.First("/i").IntVal() != int64(i) {
			t.Fatalf("doc %d after index loss: %v, %v", i, d, err)
		}
	}
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("rebuilt index not persisted: %v", err)
	}
}

// TestSegmentCorruptIndexRebuilt: a corrupt (checksum-failing) index is
// treated as missing, not trusted.
func TestSegmentCorruptIndexRebuilt(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 2048}
	s, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	var keys []docmodel.VersionKey
	for i := 0; i < 40; i++ {
		k, err := s.Put(confDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	s.Close()

	idxs, _ := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if len(idxs) == 0 {
		t.Fatal("no sealed segment indexes written")
	}
	data, err := os.ReadFile(idxs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(idxs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, k := range keys {
		d, err := s2.Get(k.Doc)
		if err != nil || d.First("/i").IntVal() != int64(i) {
			t.Fatalf("doc %d after index corruption: %v, %v", i, d, err)
		}
	}
}

// TestSegmentLazyReopen: the segment backend's defining property — a
// re-opened store holds zero decoded documents, decodes on demand, and
// the hot cache bounds residency below the corpus.
func TestSegmentLazyReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 8192, HotCacheDocs: 32}
	s, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	var keys []docmodel.VersionKey
	for i := 0; i < n; i++ {
		k, err := s.Put(confDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if res := s.ResidentDecoded(); res > 32 {
		t.Errorf("resident during ingest = %d, want <= hot cache cap 32", res)
	}
	s.Close()

	s2, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if res := s2.ResidentDecoded(); res != 0 {
		t.Fatalf("resident after reopen = %d, want 0 (lazy replay)", res)
	}
	for i, k := range keys {
		d, err := s2.Get(k.Doc)
		if err != nil || d.First("/i").IntVal() != int64(i) {
			t.Fatalf("lazy Get doc %d: %v, %v", i, d, err)
		}
	}
	if res := s2.ResidentDecoded(); res == 0 || res > 32 {
		t.Errorf("resident after reads = %d, want in (0, 32]", res)
	}
	if s2.BackendName() != "segment" {
		t.Errorf("backend = %q", s2.BackendName())
	}
}

// TestSegmentEachMetaDoesNotDecode: recovery registration must be
// possible without materializing documents.
func TestSegmentEachMetaDoesNotDecode(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 2048}
	s, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		d := confDoc(i)
		d.Class = uint8(i % 3)
		if _, err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	count := 0
	classes := map[uint8]int{}
	s2.EachMeta(func(m DocMeta) bool {
		count++
		classes[m.Class]++
		if m.Versions != 1 {
			t.Errorf("doc %s versions = %d", m.ID, m.Versions)
		}
		return true
	})
	if count != 50 {
		t.Errorf("EachMeta visited %d docs, want 50", count)
	}
	if classes[0] == 0 || classes[1] == 0 || classes[2] == 0 {
		t.Errorf("classes not recovered from headers: %v", classes)
	}
	if res := s2.ResidentDecoded(); res != 0 {
		t.Errorf("EachMeta decoded %d documents; must decode none", res)
	}
}

// TestConformanceConcurrentPutsGetsCompact: compaction runs while
// writers and readers hammer the store; everything stays consistent and
// the writer stall is bounded by the commit windows (run under -race in
// CI).
func TestConformanceConcurrentPutsGetsCompact(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendConfig) {
		s, err := Open(1, bc.opts(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Seed history so compaction has real work.
		for i := 0; i < 200; i++ {
			if _, err := s.Put(confDoc(i)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		done := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k, err := s.Put(confDoc(w*1000 + i))
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Get(k.Doc); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		go func() { wg.Wait(); close(done) }()
		for {
			if err := s.Compact(); err != nil {
				t.Error(err)
				break
			}
			select {
			case <-done:
			default:
				continue
			}
			break
		}
		wg.Wait()
		// Every document readable after the dust settles.
		misses := 0
		s.EachMeta(func(m DocMeta) bool {
			if _, err := s.Get(m.ID); err != nil {
				misses++
			}
			return true
		})
		if misses != 0 {
			t.Errorf("%d docs unreadable after concurrent compaction", misses)
		}
	})
}

// TestSegmentCompactAfterCodecChange: re-framing with a different codec
// moves every frame offset, so this exercises the full locator-remap and
// index-rewrite path (sidecar invalidated before the data rename, then
// rewritten), across a restart.
func TestSegmentCompactAfterCodecChange(t *testing.T) {
	dir := t.TempDir()
	plain := Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 2048}
	packed := plain
	packed.Codec = compress.Flate
	// A one-document hot cache sends reads to the segments.
	packed.HotCacheDocs = 1

	s, err := Open(7, plain)
	if err != nil {
		t.Fatal(err)
	}
	var keys []docmodel.VersionKey
	for i := 0; i < 40; i++ {
		k, err := s.Put(confDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	s.Close()

	s2, err := Open(7, packed)
	if err != nil {
		t.Fatal(err)
	}
	// Map the sealed segments before compaction renames new files over
	// them: the swap must drop those mappings.
	for _, k := range keys {
		if _, err := s2.Get(k.Doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	// Cold reads against the remapped locators, live.
	for i, k := range keys {
		d, err := s2.Get(k.Doc)
		if err != nil || d.First("/i").IntVal() != int64(i) {
			t.Fatalf("doc %d after codec-change compact: %v, %v", i, d, err)
		}
	}
	s2.Close()

	// And across a restart (rewritten indexes must describe the new
	// layout).
	s3, err := Open(7, packed)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	for i, k := range keys {
		d, err := s3.Get(k.Doc)
		if err != nil || d.First("/i").IntVal() != int64(i) {
			t.Fatalf("doc %d after restart: %v, %v", i, d, err)
		}
	}
}

// TestSegmentRollOver: appends past the threshold roll into new sealed
// segments with indexes.
func TestSegmentRollOver(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(7, Options{Dir: dir, Backend: BackendSegment, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := s.Put(confDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	logs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	idxs, _ := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if len(logs) < 3 {
		t.Fatalf("expected roll-over into >= 3 segments, got %d", len(logs))
	}
	if len(idxs) != len(logs)-1 {
		t.Errorf("sealed indexes = %d, want one per sealed segment (%d)", len(idxs), len(logs)-1)
	}
}

// TestOpenRejectsForeignLayout: a directory holding a single-log
// "store.wal" (a layout this package no longer reads) must fail Open
// with an error naming the file — silently presenting an empty store
// would orphan the corpus and re-mint colliding DocIDs.
func TestOpenRejectsForeignLayout(t *testing.T) {
	dir := t.TempDir()
	d := confDoc(1)
	d.ID, d.Version = docmodel.DocID{Origin: 7, Seq: 1}, 1
	frame, err := compress.EncodeFrame(compress.None, docmodel.EncodeDocument(d))
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "store.wal")
	if err := os.WriteFile(wal, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"", BackendSegment} {
		s, err := Open(7, Options{Dir: dir, Backend: backend})
		if err == nil {
			s.Close()
			t.Fatalf("Backend=%q: open over a store.wal must fail, not present an empty store", backend)
		}
		if !strings.Contains(err.Error(), wal) {
			t.Errorf("Backend=%q: error %q does not name %s", backend, err, wal)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*")); len(segs) != 0 {
		t.Errorf("refused open left segment files behind: %v", segs)
	}
}

func TestOpenRejectsUnknownBackend(t *testing.T) {
	for _, name := range []string{"bogus", "heapwal", "mmap"} {
		if _, err := Open(1, Options{Dir: t.TempDir(), Backend: name}); err == nil {
			t.Errorf("backend %q must fail", name)
		}
	}
	// Even memory-only stores validate the name, so a typo fails in the
	// simulation that wrote it, not at first deployment with a Dir.
	if _, err := Open(1, Options{Backend: "segmet"}); err == nil {
		t.Error("unknown backend must fail for memory-only stores too")
	}
}

func TestMemoryStoreIgnoresBackendSelection(t *testing.T) {
	// Dir == "" is memory-only regardless of backend request; simulations
	// construct stores this way with cluster-level config applied.
	s, err := Open(1, Options{Backend: BackendSegment})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.BackendName() != "memory" {
		t.Errorf("backend = %q", s.BackendName())
	}
	k, err := s.Put(confDoc(1))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := s.Get(k.Doc); err != nil || d.First("/i").IntVal() != 1 {
		t.Errorf("memory get: %v, %v", d, err)
	}
}
