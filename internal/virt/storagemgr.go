package virt

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"impliance/internal/docmodel"
	"impliance/internal/fabric"
)

// ReplicaAccess is how the storage manager reaches node-local stores to
// repair replication. The core engine implements it over its data-node
// stores; tests implement it over maps.
type ReplicaAccess interface {
	// FetchVersions returns every stored version of the document held by
	// the node, oldest first.
	FetchVersions(node fabric.NodeID, id docmodel.DocID) ([]*docmodel.Document, error)
	// Install idempotently stores a replica version on the node.
	Install(node fabric.NodeID, doc *docmodel.Document) error
}

// StorageManager is the autonomic storage management of paper §3.4 ("Our
// goal is for Impliance to tune all these resources autonomically...").
// Placement is a consistent-hash partition map, not per-document state: a
// document's holders are hash(DocID) → partition → ring successors,
// truncated to the replication factor of its data class. The manager
// keeps only a doc → class registry; who holds what is derived from the
// partition map, so point operations route to at most RF nodes and a node
// failure reassigns only that node's partitions.
//
// Membership is bidirectional: HandleNodeFailure shrinks the ring and
// JoinNode grows it again. A join opens per-partition dual-ownership
// windows — reads route to the pre-join owners until a partition's
// hand-off completes, writes cover both sets — and produces a
// TransferPlan naming every document copy the catch-up must perform. The
// window closes partition-by-partition as catch-up work completes
// (CompleteHandoff), never cluster-wide.
type StorageManager struct {
	policy ReplicationPolicy
	access ReplicaAccess
	pmap   *PartitionMap

	mu       sync.Mutex
	classes  map[docmodel.DocID]DataClass
	byPart   map[int][]docmodel.DocID    // partition → registered docs, registration order
	degraded map[docmodel.DocID]struct{} // repair could not restore full factor

	// loads counts point operations routed per partition since the last
	// rebalance pass — the skew signal PlanRebalance consumes.
	loads []atomic.Uint64

	// Counters for the failure-recovery experiment (E13).
	Repaired   int // replicas re-created after failures
	Unrepaired int // documents left under-replicated (no source or target)

	// tr receives ownership decisions — window open/close, failure
	// reassignment, rebalance weight moves — when a tracing transport
	// (the simulator) is attached. Nil otherwise; emissions are free.
	tr fabric.Tracer
}

// SetTracer attaches a decision-trace sink; nil detaches it.
func (sm *StorageManager) SetTracer(t fabric.Tracer) { sm.tr = t }

func (sm *StorageManager) trace(format string, args ...any) {
	if sm.tr != nil {
		sm.tr.Event(format, args...)
	}
}

// DocMove is one document copy a hand-off must perform: every version of
// the document flows Source → Target.
type DocMove struct {
	ID     docmodel.DocID
	Source fabric.NodeID
	Target fabric.NodeID
}

// PartitionTransfer is one partition's share of a membership change: the
// ownership delta plus the document copies that close its dual-ownership
// window. Partitions with no moves still carry a window that must be
// completed.
type PartitionTransfer struct {
	Partition int
	Gen       uint64
	OldOwners []fabric.NodeID
	NewOwners []fabric.NodeID
	Moves     []DocMove
}

// TransferPlan is the full hand-off plan of one membership addition or
// weight change.
type TransferPlan struct {
	Node       fabric.NodeID
	Partitions []PartitionTransfer
}

// MoveCount returns the total number of document copies in the plan.
func (tp *TransferPlan) MoveCount() int {
	if tp == nil {
		return 0
	}
	n := 0
	for _, pt := range tp.Partitions {
		n += len(pt.Moves)
	}
	return n
}

// NewStorageManager creates a manager with the given policy and access.
// Data-node membership is installed with SetDataNodes before use.
func NewStorageManager(policy ReplicationPolicy, access ReplicaAccess) *StorageManager {
	maxRF := 1
	for _, f := range policy.Factor {
		if f > maxRF {
			maxRF = f
		}
	}
	return &StorageManager{
		policy:   policy,
		access:   access,
		pmap:     NewPartitionMap(DefaultPartitions, maxRF, DefaultVnodes),
		classes:  map[docmodel.DocID]DataClass{},
		byPart:   map[int][]docmodel.DocID{},
		degraded: map[docmodel.DocID]struct{}{},
		loads:    make([]atomic.Uint64, DefaultPartitions),
	}
}

// SetDataNodes installs the data-node membership the partition map
// routes over.
func (sm *StorageManager) SetDataNodes(nodes []fabric.NodeID) {
	sm.pmap.SetNodes(nodes)
}

// Partitions returns the partition count.
func (sm *StorageManager) Partitions() int { return sm.pmap.Partitions() }

// PartitionOf maps a document to its partition.
func (sm *StorageManager) PartitionOf(id docmodel.DocID) int { return sm.pmap.PartitionOf(id) }

// OwnersOf returns a partition's replica set under the current ring, in
// ring-successor order (the hand-off *target* set while a window is open).
func (sm *StorageManager) OwnersOf(p int) []fabric.NodeID { return sm.pmap.Owners(p) }

// InRing reports whether the node is a current ring member.
func (sm *StorageManager) InRing(n fabric.NodeID) bool { return sm.pmap.Ring().Contains(n) }

// InHandoff reports whether the partition's dual-ownership window is
// open (readers that consult per-node partition state must widen to a
// broadcast for such partitions — the state is mid-hand-over).
func (sm *StorageManager) InHandoff(p int) bool { return sm.pmap.InHandoff(p) }

// ReadOwnersOf returns the owner set reads of the partition route to:
// the pre-change owners while its hand-off window is open, the current
// owners otherwise.
func (sm *StorageManager) ReadOwnersOf(p int) []fabric.NodeID { return sm.pmap.ReadOwners(p) }

// MembershipGeneration exposes the partition map's membership-change
// counter; routers bracket plan → act with it to detect concurrent
// membership changes.
func (sm *StorageManager) MembershipGeneration() uint64 { return sm.pmap.Generation() }

// PartitionGen exposes the partition's routing generation — the fence
// cached per-partition read state is stamped with (see
// PartitionMap.PartitionGen).
func (sm *StorageManager) PartitionGen(p int) uint64 { return sm.pmap.PartitionGen(p) }

// RingNodes lists current ring members.
func (sm *StorageManager) RingNodes() []fabric.NodeID { return sm.pmap.Ring().Nodes() }

// NodeWeight reports a ring member's current vnode weight (0 when off
// the ring) — the observable a rebalance pass adjusts.
func (sm *StorageManager) NodeWeight(n fabric.NodeID) int { return sm.pmap.Ring().Weight(n) }

// HandoffPending reports how many partitions are mid-hand-off (their
// dual-ownership window is still open).
func (sm *StorageManager) HandoffPending() int { return sm.pmap.PendingHandoffs() }

// RouteKey returns the routing key the scheduler can use to co-locate
// document-keyed work with the document's partition.
func (sm *StorageManager) RouteKey(id docmodel.DocID) uint64 { return docKey(id) }

// OwnerForKey implements the scheduler's ring view: the primary data node
// for an arbitrary routing key.
func (sm *StorageManager) OwnerForKey(key uint64) (fabric.NodeID, bool) {
	return sm.pmap.OwnerForKey(key)
}

// RecordLoad charges one point operation to the document's partition —
// the load signal skew-aware rebalancing consumes.
func (sm *StorageManager) RecordLoad(id docmodel.DocID) {
	sm.loads[sm.pmap.PartitionOf(id)].Add(1)
}

// PartitionLoads snapshots the per-partition point-op counters.
func (sm *StorageManager) PartitionLoads() []uint64 {
	out := make([]uint64, len(sm.loads))
	for i := range sm.loads {
		out[i] = sm.loads[i].Load()
	}
	return out
}

// ResetLoads zeroes the load counters (after a rebalance pass consumed
// them, so the next pass measures the post-adjustment distribution).
func (sm *StorageManager) ResetLoads() {
	for i := range sm.loads {
		sm.loads[i].Store(0)
	}
}

// PlaceDoc returns a new document's *write* replica set, primary first.
// Outside a hand-off window this is the first RF(class) owners of its
// partition in ring-successor order. While the partition is mid-hand-off
// the set is the union of the pre-change and target holder sets (old
// first): writes must land on both sides of the window or the new owners
// would miss them. It is a pure placement query: callers Register the
// document once it is actually persisted, so a failed write never leaves
// a phantom registration behind.
func (sm *StorageManager) PlaceDoc(id docmodel.DocID, class DataClass) ([]fabric.NodeID, error) {
	holders := sm.writeHoldersFor(id, class)
	if len(holders) == 0 {
		return nil, fmt.Errorf("virt: no data nodes for placement")
	}
	return holders, nil
}

// Register records an existing document's class (placement itself is
// derived from the partition map) and indexes it under its partition.
func (sm *StorageManager) Register(id docmodel.DocID, class DataClass) {
	p := sm.pmap.PartitionOf(id)
	sm.mu.Lock()
	if _, known := sm.classes[id]; !known {
		sm.byPart[p] = append(sm.byPart[p], id)
	}
	sm.classes[id] = class
	sm.mu.Unlock()
}

// Holders returns the nodes a *read* of the document routes to — the
// class-truncated pre-change owners while its partition is mid-hand-off
// (their copies are complete), the current owners otherwise — or nil if
// the document was never registered.
func (sm *StorageManager) Holders(id docmodel.DocID) []fabric.NodeID {
	class, ok := sm.classOf(id)
	if !ok {
		return nil
	}
	return sm.readHoldersFor(id, class)
}

// WriteHolders returns the nodes a write (new version) of the document
// must reach: both sides of an open hand-off window, old first.
func (sm *StorageManager) WriteHolders(id docmodel.DocID) []fabric.NodeID {
	class, ok := sm.classOf(id)
	if !ok {
		return nil
	}
	return sm.writeHoldersFor(id, class)
}

// TargetHolders returns the document's holder set under the current ring,
// ignoring any open hand-off window — where the document is headed, used
// e.g. to pick the long-term index owner.
func (sm *StorageManager) TargetHolders(id docmodel.DocID) []fabric.NodeID {
	class, ok := sm.classOf(id)
	if !ok {
		return nil
	}
	return truncate(sm.pmap.Owners(sm.pmap.PartitionOf(id)), sm.policy.FactorFor(class))
}

func (sm *StorageManager) classOf(id docmodel.DocID) (DataClass, bool) {
	sm.mu.Lock()
	class, ok := sm.classes[id]
	sm.mu.Unlock()
	return class, ok
}

func (sm *StorageManager) readHoldersFor(id docmodel.DocID, class DataClass) []fabric.NodeID {
	owners := sm.pmap.ReadOwners(sm.pmap.PartitionOf(id))
	return truncate(owners, sm.policy.FactorFor(class))
}

func (sm *StorageManager) writeHoldersFor(id docmodel.DocID, class DataClass) []fabric.NodeID {
	read, target, pending := sm.pmap.OwnersPair(sm.pmap.PartitionOf(id))
	rf := sm.policy.FactorFor(class)
	out := truncate(read, rf)
	if pending {
		out = out[:len(out):len(out)]
		for _, n := range truncate(target, rf) {
			if !slices.Contains(out, n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// writeMaskByRF reports, for each replication factor 1..maxOwners,
// whether the node is in the partition's write-holder set truncated to
// that factor — the per-partition precomputation DocsOn uses to avoid
// per-document owner walks.
func (sm *StorageManager) writeMaskByRF(p int, node fabric.NodeID) []bool {
	read, target, pending := sm.pmap.OwnersPair(p)
	mask := make([]bool, sm.pmap.maxOwners+1)
	for rf := 1; rf <= sm.pmap.maxOwners; rf++ {
		if slices.Contains(truncate(read, rf), node) {
			mask[rf] = true
			continue
		}
		if pending && slices.Contains(truncate(target, rf), node) {
			mask[rf] = true
		}
	}
	return mask
}

// AnsweringNode returns the partition's answering owner — the first owner
// the liveness probe accepts, drawn from the read-side owner set so that
// a mid-hand-off partition keeps answering from the owners whose data is
// complete. Exactly one node answers scans, aggregates, and facet counts
// for each partition, so distributed results count every document once
// without per-document ownership state.
func (sm *StorageManager) AnsweringNode(p int, alive func(fabric.NodeID) bool) (fabric.NodeID, bool) {
	for _, n := range sm.pmap.ReadOwners(p) {
		if alive(n) {
			return n, true
		}
	}
	return fabric.NodeID{}, false
}

// DocsInPartitions returns the registered documents of the listed
// partitions, in deterministic order. Scan-side handlers use it to visit
// only the documents of the partitions a node was asked to answer for,
// skipping its replica copies without paying to evaluate them.
func (sm *StorageManager) DocsInPartitions(parts []int) []docmodel.DocID {
	sm.mu.Lock()
	var out []docmodel.DocID
	for _, p := range parts {
		out = append(out, sm.byPart[p]...)
	}
	sm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// PartitionDocCount reports how many registered documents the partition
// holds — the partition-routed aggregate planner's cheap emptiness check.
func (sm *StorageManager) PartitionDocCount(p int) int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.byPart[p])
}

// DocsInPartition returns one partition's registered documents, in
// deterministic order.
func (sm *StorageManager) DocsInPartition(p int) []docmodel.DocID {
	sm.mu.Lock()
	out := append([]docmodel.DocID{}, sm.byPart[p]...)
	sm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// DocsOn returns the registered documents whose replica set includes the
// node (either side of an open hand-off window), in deterministic order.
// The walk is partition-driven — only partitions whose owner list
// contains the node contribute — and the registry lock is taken once for
// the whole snapshot, not once per partition.
func (sm *StorageManager) DocsOn(node fabric.NodeID) []docmodel.DocID {
	parts := sm.pmap.Partitions()
	masks := make([][]bool, parts)
	for p := 0; p < parts; p++ {
		mask := sm.writeMaskByRF(p, node)
		if slices.Contains(mask, true) {
			masks[p] = mask
		}
	}
	var out []docmodel.DocID
	sm.mu.Lock()
	for p, mask := range masks {
		if mask == nil {
			continue
		}
		for _, id := range sm.byPart[p] {
			rf := sm.policy.FactorFor(sm.classes[id])
			if rf < len(mask) && mask[rf] {
				out = append(out, id)
			}
		}
	}
	sm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// JoinNode adds a node (back) to the ring — the membership *addition*
// elastic scale-out needs. Every partition whose owner set changes gets a
// dual-ownership window and a PartitionTransfer naming the document
// copies that close it. Returns (nil, nil) when the node is already a
// member. The caller executes the plan (ExecuteMoves + CompleteHandoff),
// typically as background work, one partition at a time.
func (sm *StorageManager) JoinNode(n fabric.NodeID, alive []fabric.NodeID) (*TransferPlan, error) {
	windows, joined := sm.pmap.BeginJoin(n)
	if !joined {
		return nil, nil
	}
	return sm.planHandoff(n, windows, alive), nil
}

// AdjustNodeWeight changes a member's ring weight (vnode count), opening
// hand-off windows on the partitions whose ownership moved and returning
// the plan that closes them. Returns nil when the node is absent or the
// weight is unchanged.
func (sm *StorageManager) AdjustNodeWeight(n fabric.NodeID, vnodes int, alive []fabric.NodeID) *TransferPlan {
	windows := sm.pmap.SetNodeWeight(n, vnodes)
	if windows == nil {
		return nil
	}
	return sm.planHandoff(n, windows, alive)
}

// planHandoff turns freshly opened hand-off windows into a TransferPlan:
// for each affected document, the versions missing from the owners the
// change added are sourced from the first alive pre-change holder.
func (sm *StorageManager) planHandoff(n fabric.NodeID, windows []HandoffWindow, alive []fabric.NodeID) *TransferPlan {
	aliveSet := map[fabric.NodeID]struct{}{}
	for _, a := range alive {
		aliveSet[a] = struct{}{}
	}
	plan := &TransferPlan{Node: n}
	for _, w := range windows {
		newOwners := sm.pmap.Owners(w.Partition)
		pt := PartitionTransfer{
			Partition: w.Partition,
			Gen:       w.Gen,
			OldOwners: w.OldOwners,
			NewOwners: newOwners,
		}
		sm.mu.Lock()
		ids := append([]docmodel.DocID{}, sm.byPart[w.Partition]...)
		classes := make([]DataClass, len(ids))
		for i, id := range ids {
			classes[i] = sm.classes[id]
		}
		sm.mu.Unlock()
		for i, id := range ids {
			rf := sm.policy.FactorFor(classes[i])
			oldH := truncate(w.OldOwners, rf)
			newH := truncate(newOwners, rf)
			src, hasSrc := firstIn(oldH, aliveSet)
			for _, tgt := range newH {
				if slices.Contains(oldH, tgt) {
					continue // already holds a copy
				}
				if !hasSrc {
					sm.markUnrepaired(id)
					break
				}
				pt.Moves = append(pt.Moves, DocMove{ID: id, Source: src, Target: tgt})
			}
		}
		sm.trace("window open p=%d gen=%d moves=%d old=%v new=%v",
			pt.Partition, pt.Gen, len(pt.Moves), pt.OldOwners, pt.NewOwners)
		plan.Partitions = append(plan.Partitions, pt)
	}
	return plan
}

// ExecuteMoves performs one partition's document copies through the
// replica access: every stored version flows source → target. A move
// whose planned source fails falls back to the other pre-change owners.
// Returns the number of replicas created. The caller still owns closing
// the window with CompleteHandoff (after any indexing catch-up).
func (sm *StorageManager) ExecuteMoves(pt PartitionTransfer) int {
	created := 0
	var lastID docmodel.DocID
	var versions []*docmodel.Document
	for _, mv := range pt.Moves {
		if mv.ID != lastID {
			lastID = mv.ID
			versions = nil
			for _, src := range sourceOrder(mv.Source, pt.OldOwners) {
				if vs, err := sm.access.FetchVersions(src, mv.ID); err == nil {
					versions = vs
					break
				}
			}
		}
		if len(versions) == 0 {
			sm.markUnrepaired(mv.ID)
			continue
		}
		installed := true
		for _, v := range versions {
			if err := sm.access.Install(mv.Target, v); err != nil {
				installed = false
				break
			}
		}
		if !installed {
			sm.markUnrepaired(mv.ID)
			continue
		}
		sm.mu.Lock()
		sm.Repaired++
		sm.mu.Unlock()
		created++
	}
	return created
}

// CompleteHandoff closes the partition's dual-ownership window — the
// catch-up watermark for this partition has been reached, reads may now
// route to the new owners — and re-checks the degraded set: a document an
// earlier repair pass left under-replicated may have reached its factor
// through this hand-off (its blocked target re-joined).
func (sm *StorageManager) CompleteHandoff(pt PartitionTransfer) {
	if !sm.pmap.CompleteHandoff(pt.Partition, pt.Gen) {
		sm.trace("window close p=%d gen=%d refused (re-armed)", pt.Partition, pt.Gen)
		return
	}
	sm.trace("window close p=%d gen=%d", pt.Partition, pt.Gen)
	sm.healPartition(pt.Partition)
}

// healPartition removes partition members of the degraded set whose full
// holder set verifiably holds a copy again.
func (sm *StorageManager) healPartition(p int) {
	type cand struct {
		id    docmodel.DocID
		class DataClass
	}
	var cands []cand
	sm.mu.Lock()
	for _, id := range sm.byPart[p] {
		if _, bad := sm.degraded[id]; bad {
			cands = append(cands, cand{id, sm.classes[id]})
		}
	}
	sm.mu.Unlock()
	for _, c := range cands {
		holders := sm.readHoldersFor(c.id, c.class)
		if len(holders) == 0 {
			continue
		}
		healed := true
		for _, h := range holders {
			if _, err := sm.access.FetchVersions(h, c.id); err != nil {
				healed = false
				break
			}
		}
		if healed {
			sm.markRepaired(c.id)
		}
	}
}

// sourceOrder yields the planned source first, then the remaining
// candidates, without duplicates.
func sourceOrder(planned fabric.NodeID, rest []fabric.NodeID) []fabric.NodeID {
	out := []fabric.NodeID{planned}
	for _, n := range rest {
		if n != planned {
			out = append(out, n)
		}
	}
	return out
}

// HandleNodeFailure removes a dead data node from the ring and repairs
// replication: every partition the node owned is reassigned to its ring
// successors (unrelated partitions keep their replica sets — the
// consistent-hashing guarantee), and each affected document is copied
// from a surviving holder onto the owners it gained. Derived-class
// documents whose only replica died are counted Unrepaired — by policy
// they are re-creatable, so losing them is acceptable (paper §3.4).
//
// Returns the number of replicas re-created.
func (sm *StorageManager) HandleNodeFailure(dead fabric.NodeID, alive []fabric.NodeID) (int, error) {
	aliveSet := map[fabric.NodeID]struct{}{}
	for _, n := range alive {
		aliveSet[n] = struct{}{}
	}

	// Snapshot the pre-failure owner sets of the partitions the dead node
	// participates in (either side of an open hand-off window), then drop
	// the node; only those partitions (and the documents registered under
	// them) need walking.
	oldOwners := map[int][]fabric.NodeID{}
	for p := 0; p < sm.pmap.Partitions(); p++ {
		read, target, _ := sm.pmap.OwnersPair(p)
		if slices.Contains(read, dead) || slices.Contains(target, dead) {
			oldOwners[p] = read
		}
	}
	sm.pmap.RemoveNode(dead)

	type docInfo struct {
		id    docmodel.DocID
		class DataClass
	}
	var docs []docInfo
	sm.mu.Lock()
	for p := range oldOwners {
		for _, id := range sm.byPart[p] {
			docs = append(docs, docInfo{id, sm.classes[id]})
		}
	}
	sm.mu.Unlock()
	sort.Slice(docs, func(i, j int) bool { return docs[i].id.Compare(docs[j].id) < 0 })

	repaired := 0
	for _, di := range docs {
		p := sm.pmap.PartitionOf(di.id)
		rf := sm.policy.FactorFor(di.class)
		old := truncate(oldOwners[p], rf)
		if !slices.Contains(old, dead) {
			continue // unaffected: the dead node was outside the doc's owner prefix
		}
		// Survivors are the old holders minus the dead node; new targets
		// are the holders the reassignment added.
		var survivors []fabric.NodeID
		for _, n := range old {
			if n != dead {
				survivors = append(survivors, n)
			}
		}
		if len(survivors) == 0 {
			sm.markUnrepaired(di.id)
			continue
		}
		src, ok := firstIn(survivors, aliveSet)
		if !ok {
			sm.markUnrepaired(di.id)
			continue
		}
		newHolders := sm.readHoldersFor(di.id, di.class)
		var versions []*docmodel.Document
		fullyRepaired := true
		for _, target := range newHolders {
			if slices.Contains(survivors, target) {
				continue // already holds a copy
			}
			if _, live := aliveSet[target]; !live {
				fullyRepaired = false
				continue
			}
			if versions == nil {
				var err error
				if versions, err = sm.access.FetchVersions(src, di.id); err != nil {
					fullyRepaired = false
					break
				}
			}
			installed := true
			for _, v := range versions {
				if err := sm.access.Install(target, v); err != nil {
					installed = false
					break
				}
			}
			if !installed {
				fullyRepaired = false
				continue
			}
			sm.mu.Lock()
			sm.Repaired++
			sm.mu.Unlock()
			repaired++
		}
		if fullyRepaired {
			sm.markRepaired(di.id)
		} else {
			sm.markUnrepaired(di.id)
		}
	}
	sm.trace("failure %s: %d partitions reassigned, %d replicas repaired", dead, len(oldOwners), repaired)
	return repaired, nil
}

// ReplanHandoffs re-plans catch-up for every open hand-off window under
// the current ring. A node failure mid-window re-arms the surviving
// windows' generations (RemoveNode), fencing in-flight catch-up plans
// that may miss a promoted successor; the plan returned here carries the
// fresh generations and the complete move set, and must be executed or
// the windows never close. Returns nil when no windows are open.
func (sm *StorageManager) ReplanHandoffs(alive []fabric.NodeID) *TransferPlan {
	windows := sm.pmap.PendingWindows()
	if len(windows) == 0 {
		return nil
	}
	return sm.planHandoff(fabric.NodeID{}, windows, alive)
}

// RepairDegraded re-attempts replication repair for the degraded set: for
// each under-replicated document, versions are copied from the first
// alive holder onto the alive holders missing them. A document whose full
// holder set verifiably holds a copy leaves the degraded set — the
// "blocked target later came back" healing path. Returns the number of
// replicas created.
func (sm *StorageManager) RepairDegraded(alive []fabric.NodeID) int {
	aliveSet := map[fabric.NodeID]struct{}{}
	for _, n := range alive {
		aliveSet[n] = struct{}{}
	}
	created := 0
	for _, id := range sm.UnderReplicated() {
		class, ok := sm.classOf(id)
		if !ok {
			continue
		}
		holders := sm.readHoldersFor(id, class)
		if len(holders) == 0 {
			continue
		}
		var versions []*docmodel.Document
		var src fabric.NodeID
		for _, h := range holders {
			if _, live := aliveSet[h]; !live {
				continue
			}
			if vs, err := sm.access.FetchVersions(h, id); err == nil {
				src, versions = h, vs
				break
			}
		}
		if len(versions) == 0 {
			continue // still no alive source; data may be lost
		}
		healed := true
		for _, h := range holders {
			if h == src {
				continue
			}
			if _, err := sm.access.FetchVersions(h, id); err == nil {
				continue // already holds a copy
			}
			if _, live := aliveSet[h]; !live {
				healed = false
				continue
			}
			installed := true
			for _, v := range versions {
				if err := sm.access.Install(h, v); err != nil {
					installed = false
					break
				}
			}
			if !installed {
				healed = false
				continue
			}
			sm.mu.Lock()
			sm.Repaired++
			sm.mu.Unlock()
			created++
		}
		if healed {
			sm.markRepaired(id)
		}
	}
	return created
}

// NodeLoads aggregates the per-partition point-op counters onto the
// partition's answering (read-side) primary — the node that actually
// served the operations.
func (sm *StorageManager) NodeLoads() map[fabric.NodeID]uint64 {
	out := map[fabric.NodeID]uint64{}
	for p := 0; p < sm.pmap.Partitions(); p++ {
		owners := sm.pmap.ReadOwners(p)
		if len(owners) == 0 {
			continue
		}
		out[owners[0]] += sm.loads[p].Load()
	}
	return out
}

// minRebalanceVnodes is the floor a rebalance pass may shed a node's
// weight to: below this the node's arcs get too coarse to spread evenly.
const minRebalanceVnodes = 8

// PlanRebalance is the skew-aware rebalance pass: when the hottest node's
// point-op load exceeds skew× the mean, its ring weight is cut by a
// quarter — shrinking the keyspace share it attracts — and the resulting
// ownership moves come back as a TransferPlan for the same hand-off
// machinery a join uses. Symmetrically, when the load is not top-heavy
// but the coldest node sits below mean/skew, that node's weight grows by
// a quarter so it attracts a larger keyspace share (shedding the hottest
// node takes priority — it addresses the same skew with less churn).
// Returns nil while the load is balanced, the signal is empty, or the
// adjustment would cross the weight floor. Load counters reset after a
// plan is produced so the next pass measures the post-adjustment
// distribution.
func (sm *StorageManager) PlanRebalance(skew float64, alive []fabric.NodeID) *TransferPlan {
	if skew <= 1 {
		skew = 2
	}
	loads := sm.NodeLoads()
	if len(loads) < 2 {
		return nil
	}
	var total, max uint64
	min := uint64(0)
	first := true
	var hot, cold fabric.NodeID
	for n, l := range loads {
		total += l
		if l > max || (l == max && !hot.IsZero() && lessNodeID(n, hot)) {
			max, hot = l, n
		}
		if first || l < min || (l == min && lessNodeID(n, cold)) {
			min, cold = l, n
			first = false
		}
	}
	mean := float64(total) / float64(len(loads))
	if mean == 0 {
		return nil
	}
	var target fabric.NodeID
	var nw int
	switch {
	case float64(max) >= skew*mean:
		target = hot
		nw = sm.pmap.Ring().Weight(hot) * 3 / 4
		if nw < minRebalanceVnodes {
			return nil
		}
		sm.trace("rebalance: shed %s weight→%d (load=%d mean=%.1f)", hot, nw, max, mean)
	case float64(min)*skew < mean:
		target = cold
		w := sm.pmap.Ring().Weight(cold)
		if w < minRebalanceVnodes {
			return nil
		}
		nw = w * 5 / 4
		sm.trace("rebalance: grow %s weight→%d (load=%d mean=%.1f)", cold, nw, min, mean)
	default:
		return nil
	}
	plan := sm.AdjustNodeWeight(target, nw, alive)
	if plan != nil {
		sm.ResetLoads()
	}
	return plan
}

func lessNodeID(a, b fabric.NodeID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Num < b.Num
}

func (sm *StorageManager) markUnrepaired(id docmodel.DocID) {
	sm.mu.Lock()
	if _, dup := sm.degraded[id]; !dup {
		sm.degraded[id] = struct{}{}
		sm.Unrepaired++
	}
	sm.mu.Unlock()
}

// markRepaired heals the degraded record: a document an earlier pass
// could not fully repair may reach its factor on a later pass (e.g. its
// blocked target was recovered next, or re-joined the ring).
func (sm *StorageManager) markRepaired(id docmodel.DocID) {
	sm.mu.Lock()
	delete(sm.degraded, id)
	sm.mu.Unlock()
}

// UnderReplicated lists documents whose most recent repair pass could
// not restore the full replication factor; a later pass (or a completed
// hand-off) that succeeds removes them again (monitoring hook).
func (sm *StorageManager) UnderReplicated() []docmodel.DocID {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	out := make([]docmodel.DocID, 0, len(sm.degraded))
	for id := range sm.degraded {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func truncate(nodes []fabric.NodeID, n int) []fabric.NodeID {
	if n > len(nodes) {
		n = len(nodes)
	}
	return nodes[:n]
}

func firstIn(nodes []fabric.NodeID, set map[fabric.NodeID]struct{}) (fabric.NodeID, bool) {
	for _, n := range nodes {
		if _, ok := set[n]; ok {
			return n, true
		}
	}
	return fabric.NodeID{}, false
}
