// Package cache holds the partition layer's hot-path caches: a
// read-through point-read cache, a negative cache for repeated misses,
// and a per-partition partial cache for facet and aggregate fan-outs.
// All three are fenced by the owning partition's routing generation
// (virt.PartitionMap.PartitionGen): an entry is stamped with the
// generation current when it was filled, and a later hand-off window,
// re-join, or rebalance that moves the partition advances the counter,
// expiring every entry of that partition at once without a scan.
// Version writes are invalidated explicitly (point/negative entries by
// document ID, partials lazily through per-partition write epochs), so
// steady-state hot sets are served from memory while the fabric only
// carries true misses — the memory-resident hot-set design the paper's
// interactive-query promise leans on.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"impliance/internal/docmodel"
)

const shardCount = 16

// Config sizes and gates the caches. Zero entry counts disable the
// corresponding cache just like the explicit flags.
type Config struct {
	Partitions      int // partition-space size; epochs are per partition
	PointEntries    int
	NegativeEntries int
	PartialEntries  int
	DisablePoint    bool
	DisableNegative bool
	DisablePartial  bool
}

// Stats is one cache's counter snapshot. The negative cache's Hits are
// the "negative hits" surfaced in engine metrics.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// counters is the live, atomically-updated form of Stats.
type counters struct {
	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// docEntry is a point or negative cache slot: the document (nil for a
// negative entry) plus the partition generation it was filled under.
type docEntry struct {
	doc *docmodel.Document // shared read-only; documents are immutable by convention
	gen uint64
}

// partialEntry is one partition's cached facet/aggregate partial: the
// wire-encoded partial plus the (generation, write-epoch) pair it is
// valid for.
type partialEntry struct {
	data  []byte
	gen   uint64
	epoch uint64
}

// partialKey identifies a partial: the partition it covers and a digest
// of the query shape (path + candidates for facets, filter + spec for
// aggregates).
type partialKey struct {
	part   int
	digest uint64
}

// lru is one bounded, mutex-guarded LRU shard.
type lru[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	m   map[K]*list.Element
	l   *list.List // front = most recently used
}

type lruSlot[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, m: make(map[K]*list.Element, capacity), l: list.New()}
}

func (c *lru[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*lruSlot[K, V]).val, true
}

func (c *lru[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*lruSlot[K, V]).val = v
		c.l.MoveToFront(el)
		return
	}
	c.m[k] = c.l.PushFront(&lruSlot[K, V]{key: k, val: v})
	for c.l.Len() > c.cap {
		back := c.l.Back()
		c.l.Remove(back)
		delete(c.m, back.Value.(*lruSlot[K, V]).key)
	}
}

func (c *lru[K, V]) del(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return false
	}
	c.l.Remove(el)
	delete(c.m, k)
	return true
}

func (c *lru[K, V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}

// sharded spreads an LRU over shardCount locks.
type sharded[K comparable, V any] struct {
	shards [shardCount]*lru[K, V]
	pick   func(K) int
}

func newSharded[K comparable, V any](entries int, pick func(K) int) *sharded[K, V] {
	perShard := entries / shardCount
	if perShard < 1 {
		perShard = 1
	}
	s := &sharded[K, V]{pick: pick}
	for i := range s.shards {
		s.shards[i] = newLRU[K, V](perShard)
	}
	return s
}

func (s *sharded[K, V]) get(k K) (V, bool) { return s.shards[s.pick(k)].get(k) }
func (s *sharded[K, V]) put(k K, v V)      { s.shards[s.pick(k)].put(k, v) }
func (s *sharded[K, V]) del(k K) bool      { return s.shards[s.pick(k)].del(k) }
func (s *sharded[K, V]) size() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.size()
	}
	return n
}

func docShard(id docmodel.DocID) int {
	return int((id.Seq ^ uint64(id.Origin)*2654435761) % shardCount)
}

func partShard(k partialKey) int { return int(uint64(k.part) % shardCount) }

// Caches bundles the three hot-path caches plus the per-partition write
// epochs that guard read-through fills against racing writes: a fill
// captured the epoch before fetching, and is dropped if the epoch moved
// while the fetch was in flight (a write landed; the fetched value may
// predate it).
type Caches struct {
	point    *sharded[docmodel.DocID, docEntry] // nil = disabled
	negative *sharded[docmodel.DocID, docEntry]
	partial  *sharded[partialKey, partialEntry]
	epochs   []atomic.Uint64

	pointStats    counters
	negativeStats counters
	partialStats  counters
}

// New builds the cache set. Disabled caches are fully inert: gets miss
// silently (without counting), puts and invalidations no-op.
func New(cfg Config) *Caches {
	parts := cfg.Partitions
	if parts <= 0 {
		parts = 1
	}
	c := &Caches{epochs: make([]atomic.Uint64, parts)}
	if !cfg.DisablePoint && cfg.PointEntries > 0 {
		c.point = newSharded[docmodel.DocID, docEntry](cfg.PointEntries, docShard)
	}
	if !cfg.DisableNegative && cfg.NegativeEntries > 0 {
		c.negative = newSharded[docmodel.DocID, docEntry](cfg.NegativeEntries, docShard)
	}
	if !cfg.DisablePartial && cfg.PartialEntries > 0 {
		c.partial = newSharded[partialKey, partialEntry](cfg.PartialEntries, partShard)
	}
	return c
}

// PointEnabled reports whether the point-read cache is active.
func (c *Caches) PointEnabled() bool { return c != nil && c.point != nil }

// NegativeEnabled reports whether the negative cache is active.
func (c *Caches) NegativeEnabled() bool { return c != nil && c.negative != nil }

// Epoch returns the partition's write epoch. Read-through callers
// capture it before fetching and pass it back to the fill so a write
// racing the fetch voids the fill instead of pinning a stale value.
func (c *Caches) Epoch(part int) uint64 {
	if c == nil || part < 0 || part >= len(c.epochs) {
		return 0
	}
	return c.epochs[part].Load()
}

// BumpEpoch advances the partition's write epoch: every in-flight fill
// and every cached partial of the partition is voided. Called on primary
// version writes and on index mutations (facet partials derive from the
// index, aggregate partials from the stores — both must re-derive).
func (c *Caches) BumpEpoch(part int) {
	if c == nil || part < 0 || part >= len(c.epochs) {
		return
	}
	c.epochs[part].Add(1)
}

// InvalidateDoc drops the document's point and negative entries and
// bumps its partition's epoch — the single call write paths make after a
// version commit.
func (c *Caches) InvalidateDoc(id docmodel.DocID, part int) {
	if c == nil {
		return
	}
	if c.point != nil && c.point.del(id) {
		c.pointStats.invalidations.Add(1)
	}
	if c.negative != nil && c.negative.del(id) {
		c.negativeStats.invalidations.Add(1)
	}
	c.BumpEpoch(part)
}

// GetDoc looks the document up in the point then negative cache. An
// entry whose generation no longer matches pgen is fenced: the partition
// moved since the fill, so owner-consistency reads must refetch.
// allowStale (WithStaleReads) may serve a fenced-but-unexpired entry.
// Returns (doc, false, true) on a point hit, (nil, true, true) on a
// negative hit, and ok=false otherwise.
func (c *Caches) GetDoc(id docmodel.DocID, pgen uint64, allowStale bool) (*docmodel.Document, bool, bool) {
	if c == nil {
		return nil, false, false
	}
	if c.point != nil {
		if e, ok := c.point.get(id); ok && (e.gen == pgen || allowStale) {
			c.pointStats.hits.Add(1)
			return e.doc, false, true
		}
	}
	if c.negative != nil {
		if e, ok := c.negative.get(id); ok && (e.gen == pgen || allowStale) {
			c.negativeStats.hits.Add(1)
			return nil, true, true
		}
	}
	if c.point != nil {
		c.pointStats.misses.Add(1)
	} else if c.negative != nil {
		c.negativeStats.misses.Add(1)
	}
	return nil, false, false
}

// PutDoc fills a point entry fetched from the partition's owner. epoch
// must be the Epoch(part) captured before the fetch: if a write moved it
// meanwhile, the fill is dropped (the fetched version may be stale).
func (c *Caches) PutDoc(id docmodel.DocID, part int, doc *docmodel.Document, pgen, epoch uint64) {
	if c == nil || c.point == nil || c.Epoch(part) != epoch {
		return
	}
	c.point.put(id, docEntry{doc: doc, gen: pgen})
}

// PutNegative records a definitive miss from the partition's owner,
// with the same epoch race guard as PutDoc.
func (c *Caches) PutNegative(id docmodel.DocID, part int, pgen, epoch uint64) {
	if c == nil || c.negative == nil || c.Epoch(part) != epoch {
		return
	}
	c.negative.put(id, docEntry{gen: pgen})
}

// GetPartial returns the partition's cached partial for the query
// digest, valid only if both the routing generation and the write epoch
// still match — a moved partition or a later write voids it (counted as
// an invalidation, and the entry is dropped).
func (c *Caches) GetPartial(part int, digest, pgen uint64) ([]byte, bool) {
	if c == nil || c.partial == nil {
		return nil, false
	}
	k := partialKey{part: part, digest: digest}
	e, ok := c.partial.get(k)
	if !ok {
		c.partialStats.misses.Add(1)
		return nil, false
	}
	if e.gen != pgen || e.epoch != c.Epoch(part) {
		c.partial.del(k)
		c.partialStats.invalidations.Add(1)
		c.partialStats.misses.Add(1)
		return nil, false
	}
	c.partialStats.hits.Add(1)
	return e.data, true
}

// PutPartial caches one partition's freshly computed partial. pgen and
// epoch are the values captured when the fan-out was planned; if the
// epoch moved while the partial was computed the fill is dropped.
func (c *Caches) PutPartial(part int, digest, pgen, epoch uint64, data []byte) {
	if c == nil || c.partial == nil || c.Epoch(part) != epoch {
		return
	}
	c.partial.put(partialKey{part: part, digest: digest}, partialEntry{data: data, gen: pgen, epoch: epoch})
}

// PointStats snapshots the point cache's counters.
func (c *Caches) PointStats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.pointStats.snapshot()
}

// NegativeStats snapshots the negative cache's counters (Hits are
// negative hits).
func (c *Caches) NegativeStats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.negativeStats.snapshot()
}

// PartialStats snapshots the facet/aggregate partial cache's counters.
func (c *Caches) PartialStats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.partialStats.snapshot()
}

// PointLen reports resident point entries (tests and introspection).
func (c *Caches) PointLen() int {
	if c == nil || c.point == nil {
		return 0
	}
	return c.point.size()
}

// NegativeLen reports resident negative entries.
func (c *Caches) NegativeLen() int {
	if c == nil || c.negative == nil {
		return 0
	}
	return c.negative.size()
}

// PartialLen reports resident partial entries.
func (c *Caches) PartialLen() int {
	if c == nil || c.partial == nil {
		return 0
	}
	return c.partial.size()
}
