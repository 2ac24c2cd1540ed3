package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"impliance/internal/annot"
	"impliance/internal/discovery"
	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/fabric"
	"impliance/internal/sched"
	"impliance/internal/virt"
)

// Discovery orchestration (paper §3.3: "Annotation extraction requires
// the capabilities of all three node types. Data nodes perform
// intra-document analyses... The output of intra-document analyses may be
// fed to grid nodes for inter-document analyses that identify
// relationships spanning multiple documents. Finally, cluster nodes are
// responsible for persisting newly extracted structures and relationships
// reliably and consistently.")
//
// Intra-document annotation runs at ingest time (ingestpath.go). This
// file hosts the inter-document passes: entity resolution across the
// accumulated entity annotations, value-join discovery across document
// shapes, and schema-family mapping — each producing join-index edges.
// The edges live only in the engine's in-memory join index: the cluster
// node's lock service serializes passes, it persists nothing, so a
// restart rebuilds reference edges alone and discovered edges return
// only with the next pass.

// DiscoveryReport summarizes one inter-document discovery pass.
type DiscoveryReport struct {
	Mentions       int
	EntityClusters int
	EntityEdges    int
	ValueJoins     int
	SchemaFamilies int
	JoinEdgesTotal int
}

// RunDiscovery executes one full inter-document discovery pass. It can be
// invoked any time ("permitting automated information discovery at any
// time, not just at data loading time", §3.2); typically the appliance
// runs it as background work via ScheduleDiscovery.
func (e *Engine) RunDiscovery() (*DiscoveryReport, error) {
	return e.RunDiscoveryContext(context.Background())
}

// RunDiscoveryContext is RunDiscovery under a request lifecycle: the
// context bounds the mention gather, the cross-cluster scan, and the
// lock round-trips — a cancelled pass stops between phases and abandons
// its in-flight node calls.
func (e *Engine) RunDiscoveryContext(ctx context.Context) (*DiscoveryReport, error) {
	report := &DiscoveryReport{}

	// Phase 1 (data-node output): gather entity mentions from existing
	// annotation documents.
	mentions, err := e.collectMentions()
	if err != nil {
		return nil, err
	}
	report.Mentions = len(mentions)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2 (grid-node analysis): resolve entities, propose value joins.
	e.attributeWork(sched.TaskInterAnalysis)
	clusters := discovery.NewResolver().Resolve(mentions)
	report.EntityClusters = len(clusters)

	latest, err := e.latestBaseDocs(ctx)
	if err != nil {
		return nil, err
	}
	e.shapesMu.Lock()
	families := discovery.NewSchemaMapper().Map(e.shapes.Groups())
	e.shapesMu.Unlock()
	report.SchemaFamilies = len(families)

	// Phase 3 (cluster-node persistence): take the join-index lock, then
	// materialize edges.
	token, release, err := e.acquireClusterLock(ctx, "joinindex", "discovery")
	if err != nil {
		return nil, err
	}
	defer release()
	if !e.locks.Validate("joinindex", token) {
		return nil, fmt.Errorf("core: fencing token invalidated mid-discovery")
	}
	report.EntityEdges = discovery.BuildEntityEdges(e.joinIdx, clusters, 32)
	joins := discovery.NewValueJoinDiscoverer().Discover(latest, e.joinIdx)
	report.ValueJoins = len(joins)
	report.JoinEdgesTotal = e.joinIdx.EdgeCount()
	return report, nil
}

// ScheduleDiscovery queues RunDiscovery as background work, returning a
// channel that yields the report (or nil on failure).
func (e *Engine) ScheduleDiscovery() <-chan *DiscoveryReport {
	out := make(chan *DiscoveryReport, 1)
	e.pool.Submit(sched.Background, func() {
		rep, err := e.RunDiscovery()
		if err != nil {
			out <- nil
			return
		}
		out <- rep
	})
	return out
}

// collectMentions walks entity annotation documents on all data nodes.
func (e *Engine) collectMentions() ([]discovery.Mention, error) {
	var mentions []discovery.Mention
	seen := map[docmodel.DocID]struct{}{}
	for _, dn := range e.aliveData() {
		dn.store.Scan(func(d *docmodel.Document) bool {
			if !d.IsAnnotation() || d.Annotator != "entity" {
				return true
			}
			if _, dup := seen[d.ID]; dup {
				return true
			}
			seen[d.ID] = struct{}{}
			for _, ent := range annot.EntitiesFromAnnotation(d) {
				mentions = append(mentions, discovery.Mention{
					Doc:  d.Annotates,
					Type: ent.Type,
					Norm: ent.Norm,
				})
			}
			return true
		})
	}
	return mentions, nil
}

// latestBaseDocs returns the deduplicated latest versions of all
// non-annotation documents.
func (e *Engine) latestBaseDocs(ctx context.Context) ([]*docmodel.Document, error) {
	return e.scanDocs(ctx, expr.Not(expr.MediaTypeIs(annot.MediaAnnotation)))
}

// acquireClusterLock takes a named lock through the cluster leader's lock
// service and returns the fencing token plus a release func. The release
// deliberately ignores the request context: a cancelled caller must
// still return the lock, or cancellation would leak lock ownership.
func (e *Engine) acquireClusterLock(ctx context.Context, name, owner string) (uint64, func(), error) {
	leader := e.group.Leader()
	if leader.IsZero() {
		return 0, nil, fmt.Errorf("core: no cluster leader")
	}
	raw, err := e.fab.CallCtx(ctx, leader, msgLock, mustJSON(lockReq{Name: name, Owner: owner}))
	if err != nil {
		return 0, nil, err
	}
	var resp lockResp
	if err := unmarshal(raw, &resp); err != nil {
		return 0, nil, err
	}
	if !resp.OK {
		return 0, nil, fmt.Errorf("core: lock %q busy", name)
	}
	release := func() {
		_, _ = e.fab.Call(leader, msgUnlock, mustJSON(lockReq{Name: name, Owner: owner}))
	}
	return resp.Token, release, nil
}

// Connect answers the paper's flagship structured question — "given two
// pieces of data, we should be able to ask how they are connected"
// (§3.2.1) — over the discovered join index.
func (e *Engine) Connect(a, b docmodel.DocID, maxHops int) []discovery.Edge {
	return e.joinIdx.Connect(a, b, maxHops)
}

// ConnectContext is Connect with the uniform ctx-first signature. The
// walk is engine-local (no node calls); the context gates entry only.
func (e *Engine) ConnectContext(ctx context.Context, a, b docmodel.DocID, maxHops int) []discovery.Edge {
	if ctx.Err() != nil {
		return nil
	}
	return e.Connect(a, b, maxHops)
}

// RelatedTo returns the transitive closure of relationships around a
// document (legal-compliance discovery, §2.1.3).
func (e *Engine) RelatedTo(id docmodel.DocID, maxHops int) []docmodel.DocID {
	return e.joinIdx.ConnectedComponent(id, maxHops)
}

// RelatedToContext is RelatedTo with the uniform ctx-first signature
// (engine-local walk; the context gates entry only).
func (e *Engine) RelatedToContext(ctx context.Context, id docmodel.DocID, maxHops int) []docmodel.DocID {
	if ctx.Err() != nil {
		return nil
	}
	return e.RelatedTo(id, maxHops)
}

// AnnotationsOf returns the annotation documents attached to a base
// document (any annotator), via the join index "annotates" edges.
func (e *Engine) AnnotationsOf(id docmodel.DocID) ([]*docmodel.Document, error) {
	return e.AnnotationsOfContext(context.Background(), id)
}

// AnnotationsOfContext is AnnotationsOf under a request lifecycle: each
// annotation fetch is a routed point read bounded by the context and
// the per-call options.
func (e *Engine) AnnotationsOfContext(ctx context.Context, id docmodel.DocID, opts ...CallOption) ([]*docmodel.Document, error) {
	var out []*docmodel.Document
	for _, edge := range e.joinIdx.Neighbors(id) {
		if edge.Label != "annotates" && edge.Label != "ref" {
			continue
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		d, err := e.GetContext(ctx, edge.To, opts...)
		if err != nil {
			continue
		}
		if d.IsAnnotation() && d.Annotates == id {
			out = append(out, d)
		}
	}
	return out, nil
}

// SchemaFamilies exposes the current schema-mapping state.
func (e *Engine) SchemaFamilies() []discovery.SchemaFamily {
	e.shapesMu.Lock()
	defer e.shapesMu.Unlock()
	return discovery.NewSchemaMapper().Map(e.shapes.Groups())
}

// HeartbeatTick advances the consistency group one round (experiments
// drive time explicitly). Evicted cluster nodes trigger broker
// replacement requests and lock eviction. Data-node membership is driven
// both ways — the two halves of paper §3.4's autonomic repair:
//
//   - a dead (or write-missing, quarantined) data node still on the
//     partition ring is recovered: ring removal + partition reassignment;
//   - an alive data node *off* the ring — a recovered node the previous
//     ticks quarantined and removed, or a freshly added one — is promoted
//     back on via JoinDataNode, which opens dual-ownership hand-off
//     windows and schedules background catch-up instead of quarantining
//     the node forever.
//
// A node takes at most one step per tick (recover this tick, re-join a
// later one), so a flapping node never joins with unfilled gaps. Every
// AutoRebalanceEvery-th tick also runs a skew-aware rebalance pass when
// enough load signal has accumulated (membership.go).
func (e *Engine) HeartbeatTick() []fabric.NodeID {
	evicted := e.group.Tick()
	e.trace("heartbeat: round complete, evicted=%d", len(evicted))
	for range evicted {
		e.locks.Evict("discovery")
	}
	for _, dn := range e.dataNodes() {
		switch {
		case (!dn.node.Alive() || dn.dirty.Load()) && e.smgr.InRing(dn.node.ID):
			_, _ = e.RecoverDataNode(dn.node.ID)
		case dn.node.Alive() && !e.smgr.InRing(dn.node.ID):
			_, _ = e.JoinDataNode(dn.node.ID)
		}
	}
	// Re-attempt under-replicated documents each round: a repair target
	// that was down (blocked) may be serving again by now.
	e.smgr.RepairDegraded(e.eligibleDataIDs())
	// Periodic skew check: a sustained hot node sheds ring weight with no
	// operator action (cadence + load threshold in membership.go).
	e.maybeAutoRebalance()
	return evicted
}

// RecoverDataNode handles a data-node failure end to end: the broker
// replaces the group member, the storage manager drops the node from the
// partition ring — reassigning exactly its partitions to their ring
// successors — and re-replicates the affected documents onto the owners
// they gained. The index catch-up (each affected document re-indexed on
// its new answering owner) is scheduled as background work on the
// execution pool, one task per affected partition, so recovery returns as
// soon as the data itself is safe; DrainBackground fences the index debt.
// A recovered node re-joins the ring through a later heartbeat tick's
// JoinDataNode. Returns the number of repaired replicas.
func (e *Engine) RecoverDataNode(dead fabric.NodeID) (int, error) {
	affected := e.smgr.DocsOn(dead)
	// Ask the broker for a replacement member; lacking spares/donors is
	// not fatal — replication is repaired among survivors regardless.
	if _, err := e.broker.RequestReplacement("data", dead); err != nil && !errors.Is(err, virt.ErrNoResources) {
		return 0, err
	}
	repaired, err := e.smgr.HandleNodeFailure(dead, e.eligibleDataIDs())
	if err != nil {
		return repaired, err
	}
	// The ring lost a member and every partition the dead node owned
	// re-routed under a fresh generation: fence the tail broker so
	// subscriptions void pre-failure queued deliveries and resume from
	// their acknowledged watermarks against the surviving owners.
	e.tails.FenceAll()
	e.trace("recover %s: %d docs affected, %d replicas repaired", dead, len(affected), repaired)
	byPart := map[int][]docmodel.DocID{}
	for _, id := range affected {
		p := e.smgr.PartitionOf(id)
		byPart[p] = append(byPart[p], id)
	}
	// Submit in partition order: recovery driven from a simulated run
	// must schedule identical task sequences, not map-iteration ones.
	parts := make([]int, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		ids := byPart[p]
		// Durability class: repair work restores promised replica counts.
		e.pool.Submit(sched.Durability, func() { e.reindexDocs(ids) })
	}
	// A failure during open hand-off windows re-armed them under fresh
	// generations (the in-flight plans may miss owners the removal
	// promoted); re-plan and schedule catch-up so every window closes
	// with complete copies.
	if replan := e.smgr.ReplanHandoffs(e.eligibleDataIDs()); replan != nil {
		for _, pt := range replan.Partitions {
			pt := pt
			e.pool.Submit(sched.Durability, func() { e.catchUpPartition(pt) })
		}
	}
	return repaired, nil
}
