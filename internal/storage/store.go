// Package storage implements the per-data-node document store: an
// append-only, versioned repository of native-format documents (paper
// §3.2: "Impliance treats each such new version of a data item as
// immutable"; §4: "Impliance does not update data in-place. Instead,
// changes are implemented as the addition of a new version").
//
// The store is the software half of a paper §3.3 *data node*. It owns a
// subset of the appliance's persistent storage, evaluates pushed-down
// predicates and partial aggregates locally (paper §3.1), and compresses
// blocks inside the storage software (ditto). Durability comes from a
// write-ahead log of checksummed frames; recovery tolerates a torn tail.
//
// The Store itself is a façade: version-chain semantics, ID minting, and
// scan order live here, while the physical frame layout is a Backend
// (backend.go). A store with a directory uses the segment layout: frames
// in sealed segment files with sidecar indexes, read through memory maps
// and decoded lazily, so memory tracks the hot set instead of total
// history. A memory-only store pins every decoded version instead.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/storage/compress"
)

// Errors returned by the store.
var (
	ErrNotFound      = errors.New("storage: document not found")
	ErrVersionExists = errors.New("storage: version already exists")
	ErrVersionGap    = errors.New("storage: version gap")
	ErrClosed        = errors.New("storage: store closed")
	ErrWrongOrigin   = errors.New("storage: document id minted by another store")
	// ErrMergeUnsupported is returned by Merge on memory-only stores,
	// which have no segments to fold.
	ErrMergeUnsupported = errors.New("storage: backend does not support merge")

	errNoRandomAccess = errors.New("storage: backend does not support random reads")
)

// BackendSegment names the one on-disk layout; Options.Backend accepts
// it or "".
const BackendSegment = "segment"

// Options configures a store.
type Options struct {
	// Dir is the directory for the segment files; empty means the store
	// is memory-only (used heavily by simulations and tests).
	Dir string
	// Backend accepts only "" and BackendSegment, which both mean the
	// segment layout; any other name fails Open, memory-only stores
	// included.
	Backend string
	// SegmentBytes is the segment roll-over threshold (default 1 MiB).
	SegmentBytes int64
	// HotCacheDocs bounds the cache of decoded document versions
	// (default 1024). Memory-only stores pin every version instead.
	HotCacheDocs int
	// Codec compresses log frames; nil means compress.None.
	Codec compress.Codec
	// SyncEveryWrite fsyncs after each append. Off by default: the
	// appliance model batches syncs, and the simulator measures relative
	// costs, not disk latencies.
	SyncEveryWrite bool
	// MergeMinSegments is the fewest sealed segments Merge will fold
	// (default 2; a single sealed segment has nothing to fold with).
	MergeMinSegments int
	// RetainVersions bounds how many trailing versions of each chain a
	// Merge keeps on disk: versions at or below head−RetainVersions are
	// dropped. 0 (the default) keeps every version — Merge then only
	// reclaims fully tombstoned chains and re-frames, never GCs history.
	RetainVersions int
}

// Stats are cumulative operation and byte counters, readable concurrently.
type Stats struct {
	Puts        atomic.Uint64
	Gets        atomic.Uint64
	ScannedDocs atomic.Uint64
	RawBytes    atomic.Uint64 // pre-compression document bytes
	StoredBytes atomic.Uint64 // post-compression frame bytes

	// CompactNanos and CompactStallNanos account compaction: total wall
	// time vs time spent holding the store's write lock (the writer
	// stall). Snapshot-then-swap keeps the stall a small fraction of the
	// total.
	CompactNanos      atomic.Uint64
	CompactStallNanos atomic.Uint64

	// ReadErrors counts present documents whose frame could not be
	// re-read or decoded (segment I/O failure or on-disk corruption).
	// Point reads surface these as errors; scans skip the document and
	// rely on this counter to make the loss observable.
	ReadErrors atomic.Uint64

	// LiveBytes is the stored (framed, compressed) size of every version
	// still referenced by a chain, as of when each frame was written.
	// Disk bytes ÷ LiveBytes is the store's current space amplification;
	// Merge closes the gap by dropping frames no chain references.
	LiveBytes atomic.Uint64

	// Merges counts completed segment merges (no-op calls excluded).
	Merges atomic.Uint64
}

// centry is one version slot in a chain: where the frame lives, plus the
// decoded document in a memory-only store (pinned forever) — segment
// stores leave doc nil and decoded copies live in the hot cache.
type centry struct {
	doc   *docmodel.Document
	loc   Locator
	size  int // stored frame bytes, for live-byte accounting
	class uint8
	ann   bool
	del   bool // tombstone version
}

// Store is a single data node's document repository.
type Store struct {
	origin uint32
	opts   Options
	be     Backend
	hot    *hotCache // nil for memory-only stores

	mu     sync.RWMutex
	chains map[docmodel.DocID][]*centry // version chains, index = ver-1
	order  []docmodel.DocID             // insertion order for scans
	seq    uint64
	closed bool

	// compactMu serializes Compact against itself: the rewrite streams
	// outside s.mu by design, so two concurrent compactions would race
	// on the segments' temp files.
	compactMu sync.Mutex

	stats Stats
}

// Open creates or recovers a store. origin is the node's unique ID-minting
// prefix; it must be non-zero and stable across restarts of the same node.
func Open(origin uint32, opts Options) (*Store, error) {
	if origin == 0 {
		return nil, fmt.Errorf("storage: origin must be non-zero")
	}
	if opts.Codec == nil {
		opts.Codec = compress.None
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if opts.HotCacheDocs <= 0 {
		opts.HotCacheDocs = 1024
	}
	if opts.MergeMinSegments <= 0 {
		opts.MergeMinSegments = 2
	}
	if opts.Backend != "" && opts.Backend != BackendSegment {
		// Validate the name even for memory-only stores, so a typo fails
		// in the simulation that wrote it, not at first deployment.
		return nil, fmt.Errorf("storage: unknown backend %q (want %q)", opts.Backend, BackendSegment)
	}
	s := &Store{
		origin: origin,
		opts:   opts,
		chains: map[docmodel.DocID][]*centry{},
	}
	if opts.Dir == "" {
		s.be = &memBackend{codec: opts.Codec}
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	// store.wal is the single log of a layout this package no longer
	// reads: refuse it rather than present its corpus as an empty store.
	wal := filepath.Join(opts.Dir, "store.wal")
	if _, err := os.Stat(wal); err == nil {
		return nil, fmt.Errorf("storage: found %s, a single-log store this version cannot read; open a fresh directory", wal)
	}
	be := newSegmentBackend(opts.Dir, opts.Codec, opts.SyncEveryWrite, opts.SegmentBytes)
	s.hot = newHotCache(opts.HotCacheDocs)
	// Replay is single-threaded, so installEntry runs without s.mu.
	if err := be.open(func(m FrameMeta) error {
		s.installEntry(m.ID, m.Ver, &centry{loc: m.Loc, size: m.Size, class: m.Class, ann: m.Ann, del: m.Del})
		return nil
	}); err != nil {
		return nil, err
	}
	s.be = be
	return s, nil
}

// installEntry places a version entry in its chain, growing the chain
// with nil gap slots as needed; first write wins. Caller holds s.mu
// (or is single-threaded replay).
func (s *Store) installEntry(id docmodel.DocID, ver uint32, ce *centry) {
	if ver == 0 {
		return
	}
	chain := s.chains[id]
	for uint32(len(chain)) < ver {
		chain = append(chain, nil)
	}
	if chain[ver-1] == nil {
		chain[ver-1] = ce
		s.stats.LiveBytes.Add(uint64(ce.size))
	}
	if _, existed := s.chains[id]; !existed {
		s.order = append(s.order, id)
	}
	s.chains[id] = chain
	if id.Origin == s.origin && id.Seq > s.seq {
		s.seq = id.Seq
	}
}

// NewDocID mints a fresh document ID local to this store. IDs are unique
// appliance-wide because origins are unique per node (paper §3.3: ingest
// must not serialize through a central coordinator).
func (s *Store) NewDocID() docmodel.DocID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return docmodel.DocID{Origin: s.origin, Seq: s.seq}
}

// Put appends a document version.
//
//   - A zero ID mints a new document (version 1).
//   - A non-zero ID with Version 0 appends the next version of that
//     document.
//   - A non-zero ID with an explicit Version must extend the chain by
//     exactly one (no gaps, no overwrites) — immutability is enforced.
//
// The stored document is the caller's; callers must not mutate it after
// Put (values are immutable by convention).
func (s *Store) Put(doc *docmodel.Document) (docmodel.VersionKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return docmodel.VersionKey{}, ErrClosed
	}
	d := doc.Clone()
	if d.ID.IsZero() {
		s.seq++
		d.ID = docmodel.DocID{Origin: s.origin, Seq: s.seq}
		if d.Version != 0 && d.Version != 1 {
			return docmodel.VersionKey{}, fmt.Errorf("%w: new document with version %d", ErrVersionGap, d.Version)
		}
		d.Version = 1
	} else {
		chain := s.chains[d.ID]
		next := uint32(len(chain)) + 1
		switch {
		case d.Version == 0:
			d.Version = next
		case d.Version < next:
			return docmodel.VersionKey{}, fmt.Errorf("%w: %s", ErrVersionExists, docmodel.VersionKey{Doc: d.ID, Ver: d.Version})
		case d.Version > next:
			return docmodel.VersionKey{}, fmt.Errorf("%w: have %d versions, got version %d", ErrVersionGap, len(chain), d.Version)
		}
	}
	if err := s.append(d); err != nil {
		return docmodel.VersionKey{}, err
	}
	s.stats.Puts.Add(1)
	return d.Key(), nil
}

// PutReplica installs a document version replicated from another node,
// preserving its identity. It is idempotent: re-delivering a version is a
// no-op (replica convergence, paper §3.2: versioning "obviates the need to
// update all replicas of a document consistently and synchronously").
func (s *Store) PutReplica(doc *docmodel.Document) error {
	if doc.ID.IsZero() || doc.Version == 0 {
		return fmt.Errorf("storage: replica must carry id and version")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	chain := s.chains[doc.ID]
	if uint32(len(chain)) >= doc.Version && chain[doc.Version-1] != nil {
		return nil // already have it
	}
	return s.append(doc.Clone())
}

// append writes the version through the backend and installs it in the
// chains. Caller holds s.mu.
func (s *Store) append(d *docmodel.Document) error {
	raw := docmodel.EncodeDocument(d)
	loc, stored, err := s.be.Append(raw, frameInfoOf(d))
	if err != nil {
		return err
	}
	s.stats.StoredBytes.Add(uint64(stored))
	s.stats.RawBytes.Add(uint64(len(raw)))
	ce := &centry{loc: loc, size: stored, class: d.Class, ann: d.IsAnnotation(), del: d.Deleted}
	if s.hot != nil {
		// Fresh writes are the hottest reads (the indexer fetches them
		// right back); cache the decoded form instead of pinning it.
		s.hot.add(d.Key(), d)
	} else {
		ce.doc = d
	}
	s.installEntry(d.ID, d.Version, ce)
	return nil
}

// materializeLocked turns a chain entry into a decoded document: pinned
// (memory-only), hot-cached, or re-read from its frame. Caller holds s.mu
// in at least read mode — that is what keeps the locator valid against a
// concurrent compaction swap. cache controls hot-cache admission (only
// chain heads are cached; cold history reads stay cold).
func (s *Store) materializeLocked(key docmodel.VersionKey, ce *centry, cache bool) (*docmodel.Document, error) {
	if ce.doc != nil {
		return ce.doc, nil
	}
	if s.hot != nil {
		if d := s.hot.get(key); d != nil {
			return d, nil
		}
	}
	raw, err := s.be.ReadAt(ce.loc)
	if err != nil {
		s.stats.ReadErrors.Add(1)
		return nil, fmt.Errorf("storage: %s: %w", key, err)
	}
	d, err := docmodel.DecodeDocument(raw)
	if err != nil {
		s.stats.ReadErrors.Add(1)
		return nil, fmt.Errorf("storage: %s: %w", key, err)
	}
	if cache && s.hot != nil {
		s.hot.add(key, d)
	}
	return d, nil
}

// headOf returns the highest present version in the chain (0 if none).
func headOf(chain []*centry) uint32 {
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i] != nil {
			return uint32(i + 1)
		}
	}
	return 0
}

// Get returns the latest version of the document.
func (s *Store) Get(id docmodel.DocID) (*docmodel.Document, error) {
	d, err := s.getDoc(id, true)
	if err != nil {
		return nil, err
	}
	s.stats.Gets.Add(1)
	return d, nil
}

// getDoc materializes the latest version; cache controls hot-cache
// admission (point reads admit, scans read through without evicting the
// genuine hot set).
func (s *Store) getDoc(id docmodel.DocID, cache bool) (*docmodel.Document, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.chains[id]
	// A tombstoned head means the document is deleted: point reads and
	// scans treat it as absent, while GetVersion/EachVersion still serve
	// the tombstone itself (replication and audit see every version).
	if head := headOf(chain); head > 0 && !chain[head-1].del {
		return s.materializeLocked(docmodel.VersionKey{Doc: id, Ver: head}, chain[head-1], cache)
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// Delete appends a tombstone version for the document: deletion is an
// append like any other change (paper §4 — no in-place updates), so it
// replicates, replays, and is audit-visible via GetVersion/EachVersion.
// After Delete, Get and scans report the document as absent; segment
// merge eventually reclaims fully tombstoned chains from disk. Deleting
// an already deleted document is a no-op returning the tombstone's key.
func (s *Store) Delete(id docmodel.DocID) (docmodel.VersionKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return docmodel.VersionKey{}, ErrClosed
	}
	chain := s.chains[id]
	head := headOf(chain)
	if head == 0 {
		return docmodel.VersionKey{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if chain[head-1].del {
		return docmodel.VersionKey{Doc: id, Ver: head}, nil
	}
	d := &docmodel.Document{
		ID:         id,
		Version:    uint32(len(chain)) + 1,
		IngestedAt: time.Now().UTC(),
		Root:       docmodel.Null,
		Class:      chain[head-1].class,
		Deleted:    true,
	}
	// Carry the head's identity metadata onto the tombstone when the head
	// is readable, so annotation linkage and provenance survive in the
	// version history; a read failure still lets the delete proceed.
	if hd, err := s.materializeLocked(docmodel.VersionKey{Doc: id, Ver: head}, chain[head-1], false); err == nil {
		d.MediaType, d.Source = hd.MediaType, hd.Source
		d.Annotates, d.Annotator = hd.Annotates, hd.Annotator
	}
	if err := s.append(d); err != nil {
		return docmodel.VersionKey{}, err
	}
	s.stats.Puts.Add(1)
	return d.Key(), nil
}

// GetVersion returns one specific immutable version.
func (s *Store) GetVersion(key docmodel.VersionKey) (*docmodel.Document, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.chains[key.Doc]
	if key.Ver == 0 || uint32(len(chain)) < key.Ver || chain[key.Ver-1] == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	d, err := s.materializeLocked(key, chain[key.Ver-1], key.Ver == headOf(chain))
	if err != nil {
		return nil, err
	}
	s.stats.Gets.Add(1)
	return d, nil
}

// VersionCount returns the number of stored versions of the document
// (0 when unknown).
func (s *Store) VersionCount(id docmodel.DocID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chains[id])
}

// Len returns the number of distinct documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chains)
}

// ResidentDecoded reports how many decoded document versions are
// resident on the heap: everything ever stored for a memory-only store,
// the hot cache's population for a segment store. It is the E20 scalability
// metric — a freshly re-opened segment store reports 0.
func (s *Store) ResidentDecoded() int {
	if s.hot != nil {
		return s.hot.size()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, chain := range s.chains {
		for _, ce := range chain {
			if ce != nil && ce.doc != nil {
				n++
			}
		}
	}
	return n
}

// BackendName reports which physical layout backs the store.
func (s *Store) BackendName() string { return s.be.Name() }

// DocMeta summarizes one stored document without decoding bodies.
type DocMeta struct {
	ID         docmodel.DocID
	Versions   int
	Class      uint8
	Annotation bool
	Deleted    bool // head version is a tombstone
}

// EachMeta streams per-document metadata — identity, version count, data
// class, annotation flag — in insertion order, without materializing any
// document. Recovery registration runs on this instead of Scan, so
// re-registering a segment store's corpus costs header reads, not
// decodes. fn returning false stops the stream.
func (s *Store) EachMeta(fn func(DocMeta) bool) {
	s.mu.RLock()
	ids := make([]docmodel.DocID, len(s.order))
	copy(ids, s.order)
	s.mu.RUnlock()
	for _, id := range ids {
		s.mu.RLock()
		chain := s.chains[id]
		m := DocMeta{ID: id, Versions: len(chain)}
		if head := headOf(chain); head > 0 {
			m.Class = chain[head-1].class
			m.Annotation = chain[head-1].ann
			m.Deleted = chain[head-1].del
		}
		s.mu.RUnlock()
		if !fn(m) {
			return
		}
	}
}

// Scan streams the latest version of every document in insertion order.
// fn returning false stops the scan. A document whose frame cannot be
// re-read (corrupt or unreadable segment) is skipped; the
// failure is counted in ReadErrorCount rather than aborting the scan.
func (s *Store) Scan(fn func(*docmodel.Document) bool) {
	s.mu.RLock()
	ids := make([]docmodel.DocID, len(s.order))
	copy(ids, s.order)
	s.mu.RUnlock()
	for _, id := range ids {
		d, err := s.getDoc(id, false)
		if err != nil {
			continue
		}
		s.stats.ScannedDocs.Add(1)
		if !fn(d) {
			return
		}
	}
}

// ScanSubset streams the latest version of each listed document, in list
// order, applying the pushed-down filter. Data nodes use it to scan only
// the documents they own, skipping replica copies without paying to
// evaluate them.
func (s *Store) ScanSubset(ids []docmodel.DocID, filter expr.Expr, fn func(*docmodel.Document) bool) {
	for _, id := range ids {
		d, err := s.getDoc(id, false)
		if err != nil {
			continue
		}
		s.stats.ScannedDocs.Add(1)
		if filter.Eval(d) {
			if !fn(d) {
				return
			}
		}
	}
}

// ScanFiltered streams latest versions matching the pushed-down predicate.
// This is paper §3.1 early data reduction: the filter runs inside the
// storage component so only qualifying documents cross the interconnect.
func (s *Store) ScanFiltered(filter expr.Expr, fn func(*docmodel.Document) bool) {
	s.Scan(func(d *docmodel.Document) bool {
		if filter.Eval(d) {
			return fn(d)
		}
		return true
	})
}

// AggregateLocal evaluates a pushed-down grouped aggregation over matching
// documents and returns the mergeable partial state (two-phase
// aggregation: partials here, merge on a grid node).
func (s *Store) AggregateLocal(filter expr.Expr, spec expr.GroupSpec) *expr.GroupState {
	g := expr.NewGroupState(spec)
	s.ScanFiltered(filter, func(d *docmodel.Document) bool {
		g.Update(d)
		return true
	})
	return g
}

// EachVersion streams every stored version (for replication and audits),
// oldest first within each document, documents in insertion order. Cold
// versions are materialized one chain at a time, so memory tracks the
// longest chain, not total history.
func (s *Store) EachVersion(fn func(*docmodel.Document) bool) {
	s.mu.RLock()
	ids := make([]docmodel.DocID, len(s.order))
	copy(ids, s.order)
	s.mu.RUnlock()
	for _, id := range ids {
		s.mu.RLock()
		chain := s.chains[id]
		head := headOf(chain)
		docs := make([]*docmodel.Document, 0, len(chain))
		for i, ce := range chain {
			if ce == nil {
				continue
			}
			d, err := s.materializeLocked(docmodel.VersionKey{Doc: id, Ver: uint32(i + 1)}, ce, uint32(i+1) == head)
			if err != nil {
				continue
			}
			docs = append(docs, d)
		}
		s.mu.RUnlock()
		for _, d := range docs {
			if !fn(d) {
				return
			}
		}
	}
}

// StatsSnapshot returns a point-in-time copy of the counters.
func (s *Store) StatsSnapshot() (puts, gets, scanned, rawBytes, storedBytes uint64) {
	return s.stats.Puts.Load(), s.stats.Gets.Load(), s.stats.ScannedDocs.Load(),
		s.stats.RawBytes.Load(), s.stats.StoredBytes.Load()
}

// ReadErrorCount reports how many materializations of present documents
// have failed (I/O error or corruption on a segment store's cold-read
// path) — non-zero means scans may have silently skipped documents.
func (s *Store) ReadErrorCount() uint64 { return s.stats.ReadErrors.Load() }

// CompactStats reports cumulative compaction wall time and the portion
// spent stalling writers (holding the store's write lock).
func (s *Store) CompactStats() (total, stall time.Duration) {
	return time.Duration(s.stats.CompactNanos.Load()), time.Duration(s.stats.CompactStallNanos.Load())
}

// Compact rewrites persistent storage, dropping nothing (all versions
// are retained for audit, paper §4) but re-framing with the current
// codec and removing torn garbage. The heavy rewrite streams outside the
// store's write lock; only the per-segment renames stall writers, and
// the stall is accounted in CompactStats.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	start := time.Now()
	err := s.be.Compact(func(remap map[Locator]Locator, swap func() error) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		t0 := time.Now()
		if err := swap(); err != nil {
			return err
		}
		if len(remap) > 0 {
			// One commit's remap covers exactly one segment; pre-filtering
			// on the ordinal keeps the locked walk to an integer compare
			// per entry instead of a map probe.
			seg := -1
			for old := range remap {
				if seg >= 0 && old.Seg != seg {
					seg = -1
					break
				}
				seg = old.Seg
			}
			for _, chain := range s.chains {
				for _, ce := range chain {
					if ce == nil || (seg >= 0 && ce.loc.Seg != seg) {
						continue
					}
					if nl, ok := remap[ce.loc]; ok {
						ce.loc = nl
					}
				}
			}
		}
		s.stats.CompactStallNanos.Add(uint64(time.Since(t0)))
		return nil
	})
	s.stats.CompactNanos.Add(uint64(time.Since(start)))
	return err
}

// StorageFootprint reports the store's live bytes (stored frame size of
// every chain-referenced version) against its on-disk data bytes.
// disk−live is reclaimable garbage: superseded duplicate frames,
// retention-expired history, and tombstoned chains; Merge reclaims it.
// disk is 0 for the memory backend.
func (s *Store) StorageFootprint() (live, disk uint64) {
	live = s.stats.LiveBytes.Load()
	if sb, ok := s.be.(*segmentBackend); ok {
		if d, err := sb.DiskBytes(); err == nil {
			disk = d
		}
	}
	return live, disk
}

// Merge folds the backend's sealed segments into one, dropping frames no
// chain references, versions beyond the RetainVersions horizon, and
// fully tombstoned chains. Like Compact, the heavy rewrite streams
// outside the store's write lock; only the backend's single commit swap
// stalls writers. Returns whether a fold happened (false when there are
// fewer than MergeMinSegments sealed segments). Memory-only stores
// return ErrMergeUnsupported.
func (s *Store) Merge() (bool, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	sb, ok := s.be.(*segmentBackend)
	if !ok {
		return false, ErrMergeUnsupported
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return false, ErrClosed
	}
	start := time.Now()
	merged, err := sb.Merge(s.opts.MergeMinSegments, s.mergeKeep,
		func(mergedSegs []int, remap map[Locator]Locator, swap func() error) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.closed {
				return ErrClosed
			}
			t0 := time.Now()
			if err := swap(); err != nil {
				return err
			}
			in := map[int]bool{}
			for _, g := range mergedSegs {
				in[g] = true
			}
			var removed map[docmodel.DocID]bool
			for id, chain := range s.chains {
				empty := true
				for i, ce := range chain {
					if ce == nil {
						continue
					}
					if in[ce.loc.Seg] {
						nl, kept := remap[ce.loc]
						if !kept {
							// The frame was not carried into the merged
							// segment: this version is gone from disk, so
							// drop it from the chain too.
							s.stats.LiveBytes.Add(^uint64(ce.size) + 1)
							chain[i] = nil
							continue
						}
						ce.loc = nl
					}
					empty = false
				}
				if empty {
					if removed == nil {
						removed = map[docmodel.DocID]bool{}
					}
					removed[id] = true
					delete(s.chains, id)
				}
			}
			if len(removed) > 0 {
				kept := s.order[:0]
				for _, id := range s.order {
					if !removed[id] {
						kept = append(kept, id)
					}
				}
				s.order = kept
			}
			s.stats.CompactStallNanos.Add(uint64(time.Since(t0)))
			return nil
		})
	s.stats.CompactNanos.Add(uint64(time.Since(start)))
	if merged && err == nil {
		s.stats.Merges.Add(1)
	}
	return merged, err
}

// mergeKeep snapshots, under the read lock, which frames of the merged
// segments survive the fold:
//
//   - frames no chain references (superseded duplicates from replica
//     races) are dropped;
//   - with RetainVersions = R > 0, versions at or below head−R are
//     dropped;
//   - a fully tombstoned chain whose every frame sits inside the merged
//     set is dropped whole — disk reclamation for deletes. If any of its
//     frames live elsewhere (active segment, later seal), the chain is
//     kept; a later merge gets it.
//
// Concurrent appends only land in the active segment and only raise
// heads, so a stale snapshot errs toward keeping more, never dropping a
// frame a reader could still want.
func (s *Store) mergeKeep(segs []int) func(Locator) bool {
	in := map[int]bool{}
	for _, g := range segs {
		in[g] = true
	}
	keep := map[Locator]bool{}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, chain := range s.chains {
		head := headOf(chain)
		if head == 0 {
			continue
		}
		if chain[head-1].del {
			allInside := true
			for _, ce := range chain {
				if ce != nil && !in[ce.loc.Seg] {
					allInside = false
					break
				}
			}
			if allInside {
				continue // keep nothing: the whole chain is reclaimed
			}
		}
		var floor uint32
		if r := uint32(s.opts.RetainVersions); r > 0 && head > r {
			floor = head - r // drop versions ≤ floor
		}
		for i, ce := range chain {
			if ce == nil || !in[ce.loc.Seg] || uint32(i+1) <= floor {
				continue
			}
			keep[ce.loc] = true
		}
	}
	return func(loc Locator) bool { return keep[loc] }
}

// Close flushes and closes the backend. The store rejects writes
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.be.Close()
}

// Origin returns the store's ID-minting prefix.
func (s *Store) Origin() uint32 { return s.origin }
