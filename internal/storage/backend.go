// Backend seam: the Store façade owns document semantics (version
// chains, ID minting, immutability checks, scan order, statistics); a
// Backend owns the physical layout of the frames those semantics persist
// to. The paper's data node is "storage plus enough processing power"
// (§3.1/§3.3) whose software half decides layout and compression — this
// interface is that half's replaceable core. There is one on-disk layout,
// the segment store (sealed segment files with frame indexes, read
// through memory maps, decoded lazily); memory-only stores use
// memBackend, which persists nothing.
package storage

import (
	"impliance/internal/docmodel"
	"impliance/internal/storage/compress"
)

// Locator names a frame's physical position within a backend: the
// segment ordinal and the byte offset of the frame in that segment.
// Locators are stable until a Compact or Merge remaps them; the Store
// keeps them consistent with its chains by applying remaps inside the
// commit.
type Locator struct {
	Seg int
	Off int64
}

// FrameInfo is a frame's document identity: what a backend needs to
// index a frame without decoding it — the Store supplies it on Append
// (it holds the decoded document anyway), backends recover it from
// sidecar indexes or header parses on replay.
type FrameInfo struct {
	ID    docmodel.DocID
	Ver   uint32
	Class uint8
	Ann   bool
	Del   bool // tombstone version
}

// frameInfoOf extracts a document's frame identity.
func frameInfoOf(d *docmodel.Document) FrameInfo {
	return FrameInfo{ID: d.ID, Ver: d.Version, Class: d.Class, Ann: d.IsAnnotation(), Del: d.Deleted}
}

// FrameMeta describes one frame surfaced during replay: its locator,
// size and document identity, never its body — re-opening a store costs
// index reads and header parses, not document decodes.
type FrameMeta struct {
	Loc Locator
	// Size is the frame's on-disk (framed, compressed) byte count — the
	// replay-side twin of Append's stored return, so the Store's live-byte
	// accounting survives restarts without re-reading data files (index
	// replay derives it from offset deltas).
	Size int
	FrameInfo
}

// Backend is the physical storage layer beneath a Store. The segment
// backend also has a one-shot open(fn) the Store drives at construction:
// it recovers the on-disk state and streams every recoverable frame —
// oldest first, bounded memory, torn tail in the active segment trimmed
// — before any other method is called.
//
// Locking contract: the Store serializes Append/Close against each
// other and holds its read lock across ReadAt calls; Compact's commit
// callback runs under the Store's write lock, so a backend may swap
// files inside commit knowing no ReadAt is in flight. Backends still
// guard their own file state with an internal mutex so the contract is
// defense-in-depth, not a correctness dependency.
type Backend interface {
	// Name identifies the backend ("segment", "memory").
	Name() string
	// Append durably adds one frame wrapping the encoded document raw;
	// info is the document's identity (the caller just encoded it, so no
	// backend re-parses the header on the write path). Returns the
	// frame's locator and its stored (framed, compressed) size for byte
	// accounting.
	Append(raw []byte, info FrameInfo) (Locator, int, error)
	// ReadAt re-reads and verifies the raw document bytes of the frame
	// at loc.
	ReadAt(loc Locator) ([]byte, error)
	// Compact rewrites storage with the current codec, dropping nothing.
	// At each atomic transition point the backend calls commit with the
	// locator remapping of the affected frames and a swap function that
	// performs the file swap; the caller invokes swap under whatever lock
	// keeps its locators consistent with concurrent reads, then applies
	// the remap. The segment backend commits once per sealed segment, so
	// the stall is bounded by one segment's swap.
	Compact(commit func(remap map[Locator]Locator, swap func() error) error) error
	// Close syncs and releases file handles.
	Close() error
}

// memBackend backs memory-only stores (Options.Dir == ""): nothing is
// persisted, but Append still pays frame encoding so experiments can
// compare codec footprints without touching disk.
type memBackend struct {
	codec compress.Codec
}

func (m *memBackend) Name() string { return "memory" }

func (m *memBackend) Append(raw []byte, _ FrameInfo) (Locator, int, error) {
	frame, err := compress.EncodeFrame(m.codec, raw)
	if err != nil {
		return Locator{}, 0, err
	}
	return Locator{}, len(frame), nil
}

func (m *memBackend) ReadAt(Locator) ([]byte, error) {
	return nil, errNoRandomAccess
}

func (m *memBackend) Compact(func(map[Locator]Locator, func() error) error) error {
	return nil
}

func (m *memBackend) Close() error { return nil }
