package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impliance/internal/annot"
	"impliance/internal/baseline/costopt"
	"impliance/internal/cache"
	"impliance/internal/discovery"
	"impliance/internal/docmodel"
	"impliance/internal/fabric"
	"impliance/internal/index"
	"impliance/internal/plan"
	"impliance/internal/query"
	"impliance/internal/sched"
	"impliance/internal/storage"
	"impliance/internal/storage/compress"
	"impliance/internal/tail"
	"impliance/internal/virt"
	"impliance/internal/workload"
)

// Config sizes and configures an appliance instance. The zero value plus
// Normalize gives a small working appliance — the "operational out of the
// box" requirement (§3.1). The ablation switches exist for the
// experiments in EXPERIMENTS.md and default to the paper's design.
type Config struct {
	// Topology (paper Figure 3).
	DataNodes    int // default 4
	GridNodes    int // default 2
	ClusterNodes int // default 1

	// Workers sizes the background execution pool (default 4).
	Workers int

	// Transport supplies the interconnect implementation. Nil means the
	// real in-process goroutine fabric (fabric.New). The deterministic
	// simulator (fabric/sim) is injected here so cluster scenarios —
	// membership churn, hand-off, rebalance — replay exactly from a
	// seed. The engine owns the transport either way and closes it with
	// Close.
	Transport fabric.Transport

	// Clock supplies the engine's time source (heartbeat bookkeeping,
	// pool wait accounting, minted timestamps). Nil means the wall
	// clock; simulated runs install the simulator's virtual clock so
	// time-derived state reproduces across runs.
	Clock sched.Clock

	// Dir persists each data node's segment store under this directory
	// ("" = in-memory). Sealed segments carry frame indexes and are read
	// through memory maps, decoding lazily: resident memory tracks the
	// hot set, not total history.
	Dir string

	// StorageBackend accepts only "" and storage.BackendSegment, which
	// both mean the one on-disk layout; any other name fails Open.
	StorageBackend string

	// SegmentBytes overrides the segment store's roll-over threshold
	// (0 = the storage default).
	SegmentBytes int64

	// RetainVersions bounds how many trailing versions of each document
	// segment merge keeps on disk (see storage.Options.RetainVersions;
	// 0 keeps every version).
	RetainVersions int

	// ScanPageDocs bounds how many documents a data node returns per
	// scan reply: distributed scans page through each node's corpus, so
	// peak reply size is O(page), not O(corpus). 0 = default (256);
	// negative = unpaged single replies (ablation).
	ScanPageDocs int

	// HotCacheDocs bounds each segment store's cache of decoded documents
	// (0 = the storage default; see storage.Options.HotCacheDocs).
	HotCacheDocs int

	// Codec compresses stored frames (default compress.Flate; E15 ablation
	// sets compress.None).
	Codec compress.Codec

	// Replication assigns replica counts by data class (§3.4).
	Replication virt.ReplicationPolicy

	// Annotators installs the discovery annotators (default: entity +
	// sentiment with the standard product catalog).
	Annotators []annot.Annotator

	// --- Ablation switches (EXPERIMENTS.md) ---

	// SyncIndexing indexes and annotates inline with ingestion (E10
	// ablation; the paper's design is asynchronous).
	SyncIndexing bool
	// SyncReplication waits for every replica write during ingestion (E12
	// ablation; the paper's versioned design replicates asynchronously).
	SyncReplication bool
	// FIFOScheduling disables priority interleaving (E11 ablation).
	FIFOScheduling bool
	// RandomPlacement ignores operator/node-kind affinity (E5 ablation).
	RandomPlacement bool
	// DisablePushdown ships whole documents to the engine instead of
	// filtering/aggregating inside storage nodes (E9 ablation).
	DisablePushdown bool
	// UseCostOptimizer plans with the statistics-based optimizer instead
	// of the simple planner (E7 comparator). Statistics must be collected
	// with CollectStatistics; they go stale on purpose.
	UseCostOptimizer bool

	// --- Hot-path caches (docs/ARCHITECTURE.md "Hot-path caches") ---

	// PointCacheEntries bounds the generation-fenced point-read cache
	// (default 4096).
	PointCacheEntries int
	// NegativeCacheEntries bounds the negative (known-missing DocID)
	// cache (default 1024).
	NegativeCacheEntries int
	// PartialCacheEntries bounds the per-partition facet/aggregate
	// partial cache (default 4096).
	PartialCacheEntries int
	// DisablePointCache, DisableNegativeCache and DisablePartialCache
	// turn individual caches off (E22 ablations; the design has all
	// three on).
	DisablePointCache    bool
	DisableNegativeCache bool
	DisablePartialCache  bool

	// --- Overload control (docs/ARCHITECTURE.md "Overload control") ---

	// AdmissionInteractiveRate caps admitted interactive operations
	// (point reads, queries, streams, facets) per tenant per second at
	// the facade; rejected calls fail fast with ErrOverloaded before
	// any pool dispatch or fabric traffic. 0 leaves interactive
	// traffic ungated.
	AdmissionInteractiveRate float64
	// AdmissionInteractiveBurst caps a tenant bucket's accumulated
	// tokens (0 = one second of refill).
	AdmissionInteractiveBurst float64
	// AdmissionIngestRate / AdmissionIngestBurst gate ingestion the
	// same way, keyed by each item's Source. 0 leaves ingest ungated.
	AdmissionIngestRate  float64
	AdmissionIngestBurst float64
	// DisableAdmission turns the gate off regardless of rates (E25
	// ablation).
	DisableAdmission bool

	// SchedWeights overrides the pool's per-class deficit-round-robin
	// quanta (zero entries take the sched defaults 16/1/4).
	SchedWeights sched.Weights

	// TailRetain bounds each partition's tail event ring — how far back
	// a subscription may resume before ErrLagBehind (0 = 4096 events).
	TailRetain int
	// TailBuffer is the default per-subscriber queue capacity (0 = 256).
	TailBuffer int
}

// Normalize fills defaults in place.
func (c *Config) Normalize() {
	if c.DataNodes <= 0 {
		c.DataNodes = 4
	}
	if c.GridNodes <= 0 {
		c.GridNodes = 2
	}
	if c.ClusterNodes <= 0 {
		c.ClusterNodes = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Codec == nil {
		c.Codec = compress.Flate
	}
	if c.Replication.Factor == nil {
		c.Replication = virt.DefaultPolicy()
	}
	if c.Annotators == nil {
		c.Annotators = []annot.Annotator{
			annot.NewDefaultEntityAnnotator(workload.Products),
			annot.NewSentimentAnnotator(),
		}
	}
	if c.PointCacheEntries <= 0 {
		c.PointCacheEntries = 4096
	}
	if c.NegativeCacheEntries <= 0 {
		c.NegativeCacheEntries = 1024
	}
	if c.PartialCacheEntries <= 0 {
		c.PartialCacheEntries = 4096
	}
	if c.TailRetain <= 0 {
		c.TailRetain = 4096
	}
	if c.TailBuffer <= 0 {
		c.TailBuffer = 256
	}
}

// dataNode bundles a fabric node with its store and index. Which
// documents the node answers for is not node state: it is derived from
// the storage manager's partition map (hash(DocID) → partition → owners),
// so ownership moves with ring membership instead of being tracked in
// per-node maps.
// dataTopology is one immutable snapshot of the data-node set.
type dataTopology struct {
	list []*dataNode
	byID map[fabric.NodeID]*dataNode
}

type dataNode struct {
	node  *fabric.Node
	store *storage.Store
	ix    *index.Index

	// dirty marks a node that missed replica writes while dead. A dirty
	// node is quarantined from routing and answering (a revival without
	// recovery must not surface its gaps); recovery removes it from the
	// ring, after which the flag is moot.
	dirty atomic.Bool

	mu         sync.Mutex
	indexedVer map[docmodel.DocID]*docmodel.Document // version currently indexed
}

// Engine is a running appliance instance.
type Engine struct {
	cfg Config

	fab   fabric.Transport
	clock sched.Clock
	// tr is the transport's decision-trace sink (nil on the real
	// fabric). Membership and recovery decisions report through
	// e.trace so simulated failures dump the cluster's reasoning.
	tr fabric.Tracer
	// topo is the data-node topology, replaced copy-on-write so that
	// AddDataNode can grow the cluster while readers (point-op routing,
	// fan-outs, background catch-up) hold lock-free snapshots.
	topo    atomic.Pointer[dataTopology]
	grids   []*fabric.Node
	cluster []*fabric.Node

	placer sched.Placer
	pool   *sched.Pool
	group  *fabric.ConsistencyGroup
	locks  *fabric.LockTable
	broker *virt.Broker
	smgr   *virt.StorageManager

	// caches holds the generation-fenced hot-path caches (point reads,
	// negative lookups, facet/aggregate partials). Entries are stamped
	// with the owning partition's routing generation, so membership
	// movement expires them without a scan; version writes invalidate
	// through cacheInvalidateDoc at the putOn choke point.
	caches *cache.Caches

	// dataGroup is the data-role resource group; re-joining nodes are
	// handed back to it (the broker removed them on failure).
	dataGroup *virt.Group
	// joinMu serializes membership additions (JoinDataNode/AddDataNode):
	// two concurrent joins of the same node must not interleave the
	// index purge with a completed join, or a live member's index would
	// be wiped with nothing scheduled to rebuild it.
	joinMu sync.Mutex

	joinIdx  *discovery.JoinIndex
	registry *annot.Registry
	shapes   *discovery.ShapeAccumulator
	shapesMu sync.Mutex

	planner *plan.Planner
	catalog *query.Catalog

	optMu sync.Mutex
	opt   *costopt.Optimizer

	// idSeq mints appliance-wide document IDs. Placement hashes the ID,
	// so the ID must exist before a node is chosen (ingestpath.go).
	idSeq atomic.Uint64

	// heartbeats counts HeartbeatTick rounds; every AutoRebalanceEvery-th
	// tick runs a skew-aware rebalance pass (membership.go).
	heartbeats atomic.Uint64

	// mergesByKind counts merge operators executed per node kind (E5's
	// placement-quality metric).
	mergesByKind [3]atomic.Uint64

	// valueProbes accounts the routed value-lookup path (E19's metric):
	// how many lookups ran, how many index-probe messages they cost, and
	// how much the partition router pruned.
	valueProbes valueProbeCounters

	// admission is the facade overload gate (nil when unconfigured or
	// disabled: everything admitted).
	admission *sched.Admission

	// streamShed counts node calls a streaming scan never dispatched
	// because the caller's deadline/cancellation arrived first — the
	// fan-out half of deadline shedding.
	streamShed atomic.Uint64

	// tails is the live-tailing broker (tailpath.go): per-partition CDC
	// event logs written at the write-commit points, fanned out to
	// bounded subscriber queues. Membership hooks fence it so
	// subscriptions migrate with their partitions.
	tails *tail.Broker

	closed bool
	mu     sync.Mutex
}

// MergeCountByKind reports how many merge operators each node kind has
// executed (instrumentation for the placement experiments).
func (e *Engine) MergeCountByKind() (data, grid, cluster uint64) {
	return e.mergesByKind[fabric.Data].Load(),
		e.mergesByKind[fabric.Grid].Load(),
		e.mergesByKind[fabric.Cluster].Load()
}

// Open boots an appliance.
func Open(cfg Config) (*Engine, error) {
	cfg.Normalize()
	fab := cfg.Transport
	if fab == nil {
		fab = fabric.New()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = sched.RealClock()
	}
	e := &Engine{
		cfg:      cfg,
		fab:      fab,
		clock:    clock,
		tr:       fab.Tracer(),
		locks:    fabric.NewLockTable(),
		broker:   virt.NewBroker(),
		joinIdx:  discovery.NewJoinIndex(),
		registry: annot.NewRegistry(cfg.Annotators...),
		shapes:   discovery.NewShapeAccumulator(),
		planner:  plan.NewPlanner(),
		catalog:  query.NewCatalog(),
	}
	e.topo.Store(&dataTopology{byID: map[fabric.NodeID]*dataNode{}})

	// Boot data nodes: fabric node + store + index each.
	for i := 0; i < cfg.DataNodes; i++ {
		if _, err := e.bootDataNode(uint32(i + 1)); err != nil {
			e.fab.Close()
			return nil, err
		}
	}
	// Grid nodes.
	for i := 0; i < cfg.GridNodes; i++ {
		n := e.fab.AddNode(fabric.Grid)
		n.SetHandler(e.gridHandler(n))
		e.grids = append(e.grids, n)
	}
	// Cluster nodes and their consistency group.
	var members []fabric.NodeID
	for i := 0; i < cfg.ClusterNodes; i++ {
		n := e.fab.AddNode(fabric.Cluster)
		n.SetHandler(e.clusterHandler(n))
		e.cluster = append(e.cluster, n)
		members = append(members, n.ID)
	}
	e.group = fabric.NewConsistencyGroup(e.fab, members, 3)

	// Virtualization: one group per role, registered with the broker.
	dg := virt.NewGroup("data", virt.RoleData, 1)
	for _, dn := range e.dataNodes() {
		dg.Add(dn.node.ID)
	}
	gg := virt.NewGroup("grid", virt.RoleGrid, 1)
	for _, g := range e.grids {
		gg.Add(g.ID)
	}
	cg := virt.NewGroup("cluster", virt.RoleCluster, 1, members...)
	e.dataGroup = dg
	e.broker.AddGroup(dg)
	e.broker.AddGroup(gg)
	e.broker.AddGroup(cg)

	e.smgr = virt.NewStorageManager(cfg.Replication, replicaAccess{e})
	e.smgr.SetTracer(e.tr)
	e.smgr.SetDataNodes(e.DataNodeIDs())
	e.caches = cache.New(cache.Config{
		Partitions:      e.smgr.Partitions(),
		PointEntries:    cfg.PointCacheEntries,
		NegativeEntries: cfg.NegativeCacheEntries,
		PartialEntries:  cfg.PartialCacheEntries,
		DisablePoint:    cfg.DisablePointCache,
		DisableNegative: cfg.DisableNegativeCache,
		DisablePartial:  cfg.DisablePartialCache,
	})
	e.recoverFromStores()

	if cfg.RandomPlacement {
		e.placer = sched.NewRandomPlacer(e.fab, 1)
	} else {
		ap := sched.NewAffinityPlacer(e.fab)
		ap.SetRouter(e.smgr) // data-affine keyed placement over the ring
		e.placer = ap
	}
	e.pool = sched.NewPoolConfig(sched.PoolConfig{
		Workers: cfg.Workers,
		FIFO:    cfg.FIFOScheduling,
		Weights: cfg.SchedWeights,
	})
	e.pool.SetClock(e.clock)
	if !cfg.DisableAdmission && (cfg.AdmissionInteractiveRate > 0 || cfg.AdmissionIngestRate > 0) {
		var rates, bursts [sched.NumClasses]float64
		rates[sched.Interactive] = cfg.AdmissionInteractiveRate
		bursts[sched.Interactive] = cfg.AdmissionInteractiveBurst
		rates[sched.Background] = cfg.AdmissionIngestRate
		bursts[sched.Background] = cfg.AdmissionIngestBurst
		e.admission = sched.NewAdmission(sched.AdmissionConfig{Clock: e.clock, Rates: rates, Bursts: bursts})
	}
	e.tails = tail.NewBroker(tail.Options{
		Partitions: e.smgr.Partitions(),
		Retain:     cfg.TailRetain,
		Buffer:     cfg.TailBuffer,
		Clock:      e.clock,
		// Replay and catch-up after a fence run as Background pool work —
		// tail delivery must never compete with durability traffic. If the
		// pool is closing, fall back to a goroutine so a terminating fence
		// still drains.
		Run: func(fn func()) {
			if !e.pool.Submit(sched.Background, fn) {
				go fn()
			}
		},
		PartitionGen: e.smgr.PartitionGen,
	})

	e.registerSystemViews()
	return e, nil
}

// trace reports one membership/routing decision to the transport's
// tracer, when there is one (the simulator); on the real fabric it is
// free.
func (e *Engine) trace(format string, args ...any) {
	if e.tr != nil {
		e.tr.Event(format, args...)
	}
}

// Close shuts the appliance down.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.tails.Shutdown()
	e.pool.Close()
	var firstErr error
	for _, dn := range e.dataNodes() {
		if err := dn.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.fab.Close()
	return firstErr
}

// Fabric exposes the underlying transport (experiments kill nodes, read
// interconnect counters).
func (e *Engine) Fabric() fabric.Transport { return e.fab }

// Pool exposes the execution pool (experiments read queue stats).
func (e *Engine) Pool() *sched.Pool { return e.pool }

// admitOp consults the facade admission gate for one operation of the
// given SLO class on the tenant's bucket. It is the fast-reject path:
// a rejection costs one bucket lookup — no pool dispatch, no fabric
// traffic — and returns *sched.OverloadError with a retry-after hint.
func (e *Engine) admitOp(c sched.Class, tenant string) error {
	return e.admission.Admit(c, tenant)
}

// admitIngest gates a batch of n documents from one source through the
// ingest bucket.
func (e *Engine) admitIngest(source string, n int) error {
	return e.admission.AdmitN(sched.Background, source, n)
}

// Broker exposes the resource broker.
func (e *Engine) Broker() *virt.Broker { return e.broker }

// StorageManager exposes placement state.
func (e *Engine) StorageManager() *virt.StorageManager { return e.smgr }

// JoinIndex exposes discovered relationships.
func (e *Engine) JoinIndex() *discovery.JoinIndex { return e.joinIdx }

// Catalog exposes the view catalog for registering application views.
func (e *Engine) Catalog() *query.Catalog { return e.catalog }

// DataStoreStats exposes the i-th data node's store counters (experiment
// instrumentation).
func (e *Engine) DataStoreStats(i int) (puts, gets, scanned, raw, stored uint64) {
	data := e.dataNodes()
	if i < 0 || i >= len(data) {
		return 0, 0, 0, 0, 0
	}
	return data[i].store.StatsSnapshot()
}

// NodeHandledCounts returns, for every node of the kind, how many
// messages its loop has processed (experiment instrumentation for load
// distribution).
func (e *Engine) NodeHandledCounts(kind fabric.NodeKind) map[string]uint64 {
	out := map[string]uint64{}
	for _, id := range e.fab.NodesOf(kind) {
		if n, ok := e.fab.Node(id); ok {
			_, _, handled := n.Stats()
			out[id.String()] = handled
		}
	}
	return out
}

// dataNodes returns the current data-node snapshot (lock-free; the slice
// is immutable — never mutate it).
func (e *Engine) dataNodes() []*dataNode { return e.topo.Load().list }

// dataNode resolves a data node by ID from the current snapshot.
func (e *Engine) dataNode(id fabric.NodeID) (*dataNode, bool) {
	dn, ok := e.topo.Load().byID[id]
	return dn, ok
}

// DataNodeIDs lists the engine's data node IDs.
func (e *Engine) DataNodeIDs() []fabric.NodeID {
	data := e.dataNodes()
	out := make([]fabric.NodeID, len(data))
	for i, dn := range data {
		out[i] = dn.node.ID
	}
	return out
}

// aliveData returns the alive data nodes.
func (e *Engine) aliveData() []*dataNode {
	var out []*dataNode
	for _, dn := range e.dataNodes() {
		if dn.node.Alive() {
			out = append(out, dn)
		}
	}
	return out
}

// eligibleDataIDs lists the data nodes fit to source and receive repair
// copies: alive and not quarantined for missed writes — a dirty node's
// gaps must never propagate into freshly repaired replicas.
func (e *Engine) eligibleDataIDs() []fabric.NodeID {
	var out []fabric.NodeID
	for _, dn := range e.dataNodes() {
		if e.eligible(dn) {
			out = append(out, dn.node.ID)
		}
	}
	return out
}

// bootDataNode provisions one data node — fabric node, store, index,
// handler — and registers it with the engine. origin seeds the store's
// legacy ID allocator (engine-minted IDs use engineIDOrigin instead).
func (e *Engine) bootDataNode(origin uint32) (*dataNode, error) {
	n := e.fab.AddNode(fabric.Data)
	dir := ""
	if e.cfg.Dir != "" {
		dir = filepath.Join(e.cfg.Dir, n.ID.String())
	}
	st, err := storage.Open(origin, e.storeOptions(dir))
	if err != nil {
		return nil, fmt.Errorf("core: boot %s: %w", n.ID, err)
	}
	dn := &dataNode{
		node: n, store: st,
		// The value index is keyed by the same hash(DocID) → partition
		// function the storage manager routes by, so the engine's probe
		// router can name the partitions a probe should consult.
		ix: index.NewPartitioned(nil, virt.DefaultPartitions, func(id docmodel.DocID) int {
			return virt.DocPartition(id, virt.DefaultPartitions)
		}),
		indexedVer: map[docmodel.DocID]*docmodel.Document{},
	}
	n.SetHandler(e.dataHandler(dn))
	// Copy-on-write registration: readers keep their snapshot, the next
	// load sees the grown topology. e.mu serializes writers and orders
	// the publish against Close — a topology published after Close set
	// the flag would hold a store Close never snapshots, so refuse and
	// release the store instead.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = st.Close()
		return nil, fmt.Errorf("core: boot %s: engine closed", n.ID)
	}
	old := e.topo.Load()
	next := &dataTopology{
		list: append(append([]*dataNode{}, old.list...), dn),
		byID: make(map[fabric.NodeID]*dataNode, len(old.byID)+1),
	}
	for id, d := range old.byID {
		next.byID[id] = d
	}
	next.byID[n.ID] = dn
	e.topo.Store(next)
	e.mu.Unlock()
	return dn, nil
}

// storeOptions builds a data-node store configuration: the engine-wide
// backend selection and codec, rooted at the node's directory.
func (e *Engine) storeOptions(dir string) storage.Options {
	return storage.Options{
		Dir:            dir,
		Backend:        e.cfg.StorageBackend,
		SegmentBytes:   e.cfg.SegmentBytes,
		HotCacheDocs:   e.cfg.HotCacheDocs,
		Codec:          e.cfg.Codec,
		RetainVersions: e.cfg.RetainVersions,
	}
}

// defaultScanPageDocs is the per-reply document bound for paged
// distributed scans when Config.ScanPageDocs is unset.
const defaultScanPageDocs = 256

// scanPageSize resolves the configured page bound (0 = unpaged).
func (e *Engine) scanPageSize() int {
	switch {
	case e.cfg.ScanPageDocs < 0:
		return 0
	case e.cfg.ScanPageDocs == 0:
		return defaultScanPageDocs
	}
	return e.cfg.ScanPageDocs
}

// engineIDOrigin is the Origin of engine-minted document IDs. It is
// disjoint from the per-store origins (1..DataNodes), so the central
// allocator and any legacy store-minted IDs can never collide.
const engineIDOrigin uint32 = 0xC1D20000

// mintDocID allocates an appliance-wide document ID. IDs exist before
// placement because placement is hash(DocID) → partition → node.
func (e *Engine) mintDocID() docmodel.DocID {
	return docmodel.DocID{Origin: engineIDOrigin, Seq: e.idSeq.Add(1)}
}

// recoverFromStores rebuilds the volatile routing state a persistent
// appliance needs after WAL replay: the ID allocator advances past every
// recovered engine-minted ID, each recovered document is re-registered
// with the storage manager under the data class persisted in its header
// (so a restarted regulatory document repairs at RF3, not RF2), documents
// are migrated onto their current ring owners (the reopened appliance may
// have a different data-node count, which moves the hash placement), and
// each node re-indexes the documents of its answering partitions.
//
// Registration runs on the stores' metadata stream (EachMeta), not a
// document scan: a segment-backed store registers its whole corpus from
// replayed headers without materializing a single body.
func (e *Engine) recoverFromStores() {
	sources := make([]*storage.Store, 0, len(e.dataNodes()))
	for _, dn := range e.dataNodes() {
		sources = append(sources, dn.store)
	}
	// A previous run may have had more data nodes: their WAL directories
	// are still on disk but back no live node. Scan them too, or their
	// documents would silently vanish and the ID allocator could regress
	// below Seqs they persisted.
	orphans := e.openOrphanStores()
	defer func() {
		for _, st := range orphans {
			_ = st.Close()
		}
	}()
	sources = append(sources, orphans...)

	maxSeq := uint64(0)
	seen := map[docmodel.DocID]struct{}{}
	for _, st := range sources {
		st.EachMeta(func(m storage.DocMeta) bool {
			if m.ID.Origin == engineIDOrigin && m.ID.Seq > maxSeq {
				maxSeq = m.ID.Seq
			}
			if m.Deleted {
				// Tombstoned documents are not routing state: they stay on
				// their stores (for audit, until merge reclaims them) but
				// are neither registered nor migrated — recovery must not
				// resurrect a deleted document into the ring.
				return true
			}
			if _, dup := seen[m.ID]; !dup {
				seen[m.ID] = struct{}{}
				class := virt.DataClass(m.Class)
				if class == virt.ClassUser && m.Annotation {
					// Legacy header without a class byte value: annotations
					// are derived by construction.
					class = virt.ClassDerived
				}
				e.smgr.Register(m.ID, class)
			}
			return true
		})
	}
	if maxSeq > e.idSeq.Load() {
		e.idSeq.Store(maxSeq)
	}
	if len(seen) == 0 {
		return
	}
	// Boot-time migration: every holder the ring names must physically
	// have every version, or routed reads would miss data that is on disk
	// under the old membership's placement — and a lagging replica
	// promoted to answering owner would serve a stale latest version.
	// Each version is sourced independently: chains can have holes (a
	// replica that missed v1 but received v2 has the same length as a
	// complete chain), so no single store is authoritative. Copies go
	// store-to-store (the fabric is not serving yet).
	for id := range seen {
		best := 0
		for _, st := range sources {
			if n := st.VersionCount(id); n > best {
				best = n
			}
		}
		if best == 0 {
			continue
		}
		for _, h := range e.smgr.Holders(id) {
			dst, ok := e.dataNode(h)
			if !ok {
				continue
			}
			for v := uint32(1); v <= uint32(best); v++ {
				key := docmodel.VersionKey{Doc: id, Ver: v}
				if _, err := dst.store.GetVersion(key); err == nil {
					continue // already holds this version
				}
				for _, st := range sources {
					if st == dst.store {
						continue
					}
					if d, err := st.GetVersion(key); err == nil {
						_ = dst.store.PutReplica(d)
						break
					}
				}
			}
		}
	}
	pl := newPartPlan(e, false)
	for p := 0; p < e.smgr.Partitions(); p++ {
		pl.answering(p)
	}
	for _, dn := range e.dataNodes() {
		for _, id := range e.smgr.DocsInPartitions(pl.targets[dn]) {
			d, err := dn.store.Get(id)
			if err != nil {
				continue
			}
			dn.indexDoc(d)
			// Discovery state is in-memory only: replay reference edges
			// (including annotation "annotates" edges) and shape
			// observations alongside the index.
			discovery.BuildRefEdges(e.joinIdx, d)
			if !d.IsAnnotation() {
				e.shapesMu.Lock()
				e.shapes.Observe(d)
				e.shapesMu.Unlock()
			}
		}
	}
}

// openOrphanStores opens the persisted stores of data nodes that existed
// in a previous, larger membership ("data-N" directories beyond the
// configured count). They participate in recovery as read sources only
// and are closed when recovery finishes.
func (e *Engine) openOrphanStores() []*storage.Store {
	if e.cfg.Dir == "" {
		return nil
	}
	entries, err := os.ReadDir(e.cfg.Dir)
	if err != nil {
		return nil
	}
	live := map[string]struct{}{}
	for _, dn := range e.dataNodes() {
		live[dn.node.ID.String()] = struct{}{}
	}
	var out []*storage.Store
	for _, ent := range entries {
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "data-") {
			continue
		}
		if _, ok := live[ent.Name()]; ok {
			continue
		}
		st, err := storage.Open(^uint32(0), e.storeOptions(filepath.Join(e.cfg.Dir, ent.Name())))
		if err != nil {
			continue
		}
		out = append(out, st)
	}
	return out
}

// routeNewDoc resolves a new document's replica set into a live primary
// plus the remaining targets. Dead targets stay in the replica set (the
// partition map is membership truth, liveness is transient); their
// copies are restored by recovery. The caller registers the document
// with the storage manager once the primary write succeeds.
func (e *Engine) routeNewDoc(id docmodel.DocID, class virt.DataClass) (primary *dataNode, others []fabric.NodeID, err error) {
	targets, err := e.smgr.PlaceDoc(id, class)
	if err != nil {
		return nil, nil, err
	}
	e.smgr.RecordLoad(id)
	for _, t := range targets {
		if primary == nil {
			if dn, ok := e.dataNode(t); ok && e.eligible(dn) {
				primary = dn
				continue
			}
		}
		others = append(others, t)
	}
	if primary == nil {
		return nil, nil, errors.New("core: no alive data nodes")
	}
	return primary, others, nil
}

// eligible reports whether a data node may serve routed reads and answer
// for its partitions: it must be alive and must not be quarantined for
// missed writes.
func (e *Engine) eligible(dn *dataNode) bool {
	return dn.node.Alive() && !dn.dirty.Load()
}

// CompactStores re-frames every data node's persistent store with the
// current codec (storage.Store.Compact), one store at a time.
func (e *Engine) CompactStores() error {
	for _, dn := range e.dataNodes() {
		if err := dn.store.Compact(); err != nil {
			return fmt.Errorf("%s: %w", dn.node.ID, err)
		}
	}
	return nil
}

// MergeStores runs segment merge/GC on every data node's store and
// reports how many stores actually folded. Backends without physical
// segments surface storage.ErrMergeUnsupported.
func (e *Engine) MergeStores() (folds int, err error) {
	for _, dn := range e.dataNodes() {
		merged, err := dn.store.Merge()
		if err != nil {
			return folds, fmt.Errorf("%s: %w", dn.node.ID, err)
		}
		if merged {
			folds++
		}
	}
	return folds, nil
}

// StorageFootprint sums every data node's live vs on-disk byte counts
// (storage.Store.StorageFootprint): disk−live is the garbage a merge
// would reclaim.
func (e *Engine) StorageFootprint() (live, disk uint64) {
	for _, dn := range e.dataNodes() {
		l, d := dn.store.StorageFootprint()
		live += l
		disk += d
	}
	return live, disk
}

// Metrics is a point-in-time snapshot of appliance health counters.
type Metrics struct {
	Documents     int
	Annotations   int
	IndexedDocs   int
	JoinEdges     int
	Net           fabric.NetStats
	StoredBytes   uint64
	RawBytes      uint64
	BacklogTasks  int
	GroupEpoch    uint64
	ClusterLeader fabric.NodeID

	// Routed value-lookup accounting (see Engine.ValueProbeStats).
	ValueLookups        uint64
	ValueProbes         uint64
	ValueProbePruned    uint64
	ValueProbeFallbacks uint64

	// Hot-path cache accounting (see Engine.CacheStats).
	Caches CacheMetrics

	// Overload-control accounting (see Engine.OverloadStats): per-class
	// pool scheduling/shedding counters, facade admission decisions,
	// and streaming fan-out sheds.
	Sched           map[string]SchedClassMetrics
	Admission       map[string]AdmissionClassMetrics
	StreamShedCalls uint64

	// AdmissionFairness is Jain's fairness index over the per-tenant
	// interactive admission buckets (1.0 = perfectly even, 1/n = one
	// tenant takes everything; 1.0 when ungated or single-tenant).
	AdmissionFairness float64

	// Live-tailing accounting (see Engine.TailStats).
	Tail TailMetrics
}

// SchedClassMetrics reports one SLO class's pool accounting: executed
// tasks, instantaneous queue depth, queue-wait distribution, and the
// three overload outcomes (shed at submit, shed at dequeue, rejected on
// a full queue).
type SchedClassMetrics struct {
	Tasks         uint64
	QueueDepth    int
	ShedAtSubmit  uint64
	ShedAtDequeue uint64
	RejectedFull  uint64
	MeanWaitUs    int64
	WaitP50Us     int64
	WaitP99Us     int64
	MaxWaitUs     int64
}

// AdmissionClassMetrics reports facade admission decisions for one
// class's buckets (summed over tenants).
type AdmissionClassMetrics struct {
	Admitted uint64
	Rejected uint64
}

// CacheMetrics reports the hot-path caches' counters: hits, misses and
// invalidations per cache. The negative cache's hits are the negative
// hits — a repeated miss answered without a ring round-trip.
type CacheMetrics struct {
	PointHits             uint64
	PointMisses           uint64
	PointInvalidations    uint64
	NegativeHits          uint64
	NegativeMisses        uint64
	NegativeInvalidations uint64
	PartialHits           uint64
	PartialMisses         uint64
	PartialInvalidations  uint64
}

// MetricsSnapshot gathers current counters.
func (e *Engine) MetricsSnapshot() Metrics {
	return e.MetricsSnapshotContext(context.Background())
}

// MetricsSnapshotContext gathers current counters under a request
// lifecycle. Corpus statistics stream over each store's header metadata
// (EachMeta) instead of scanning document bodies, so a snapshot of a
// lazily-decoded segment store counts a 10k-document corpus without
// materializing a single body; a cancelled context stops the walk early
// and returns the partial snapshot.
func (e *Engine) MetricsSnapshotContext(ctx context.Context) Metrics {
	m := Metrics{
		Net:           e.fab.NetStats(),
		BacklogTasks:  e.pool.Backlog(),
		JoinEdges:     e.joinIdx.EdgeCount(),
		GroupEpoch:    e.group.Epoch(),
		ClusterLeader: e.group.Leader(),
	}
	m.ValueLookups, m.ValueProbes, m.ValueProbePruned, m.ValueProbeFallbacks = e.ValueProbeStats()
	m.Caches = e.CacheStats()
	m.Sched, m.Admission, m.StreamShedCalls, m.AdmissionFairness = e.OverloadStats()
	m.Tail = e.TailStats()
	seen := map[docmodel.DocID]struct{}{}
	for _, dn := range e.dataNodes() {
		if ctx.Err() != nil {
			break
		}
		m.IndexedDocs += dn.ix.DocCount()
		_, _, _, raw, stored := dn.store.StatsSnapshot()
		m.RawBytes += raw
		m.StoredBytes += stored
		dn.store.EachMeta(func(meta storage.DocMeta) bool {
			if _, dup := seen[meta.ID]; dup {
				return true // replica: count each document once
			}
			seen[meta.ID] = struct{}{}
			if meta.Annotation {
				m.Annotations++
			} else {
				m.Documents++
			}
			return ctx.Err() == nil
		})
	}
	return m
}

// OverloadStats snapshots the overload-control counters: per-class
// pool scheduling stats, per-class admission decisions, how many
// streaming fan-out node calls were shed un-dispatched, and Jain's
// fairness index over the per-tenant admission buckets.
func (e *Engine) OverloadStats() (map[string]SchedClassMetrics, map[string]AdmissionClassMetrics, uint64, float64) {
	scheds := map[string]SchedClassMetrics{}
	pool := e.pool.StatsAll()
	adm := e.admission.Stats()
	admits := map[string]AdmissionClassMetrics{}
	for _, c := range sched.Classes() {
		qs := pool[c]
		scheds[c.String()] = SchedClassMetrics{
			Tasks:         qs.Tasks,
			QueueDepth:    qs.Depth,
			ShedAtSubmit:  qs.ShedAtSubmit,
			ShedAtDequeue: qs.ShedAtDequeue,
			RejectedFull:  qs.RejectedFull,
			MeanWaitUs:    qs.MeanWait().Microseconds(),
			WaitP50Us:     qs.WaitP50.Microseconds(),
			WaitP99Us:     qs.WaitP99.Microseconds(),
			MaxWaitUs:     qs.MaxWait.Microseconds(),
		}
		admits[c.String()] = AdmissionClassMetrics{
			Admitted: adm.Admitted[c],
			Rejected: adm.Rejected[c],
		}
	}
	return scheds, admits, e.streamShed.Load(), e.admission.FairnessIndex()
}

// CacheStats snapshots the hot-path cache counters.
func (e *Engine) CacheStats() CacheMetrics {
	p, n, f := e.caches.PointStats(), e.caches.NegativeStats(), e.caches.PartialStats()
	return CacheMetrics{
		PointHits:             p.Hits,
		PointMisses:           p.Misses,
		PointInvalidations:    p.Invalidations,
		NegativeHits:          n.Hits,
		NegativeMisses:        n.Misses,
		NegativeInvalidations: n.Invalidations,
		PartialHits:           f.Hits,
		PartialMisses:         f.Misses,
		PartialInvalidations:  f.Invalidations,
	}
}

// cacheInvalidateDoc drops the document's point and negative entries and
// voids its partition's cached partials (via the write epoch) — called
// after every committed primary write and after index mutations that
// change what the partition's facet/aggregate partials derive from.
func (e *Engine) cacheInvalidateDoc(id docmodel.DocID) {
	e.caches.InvalidateDoc(id, e.smgr.PartitionOf(id))
}

// now is the engine clock: the wall clock normally, the simulator's
// virtual clock on a simulated transport — so minted timestamps
// (IngestedAt and friends) reproduce across seeded runs.
func (e *Engine) now() time.Time { return e.clock.Now() }
