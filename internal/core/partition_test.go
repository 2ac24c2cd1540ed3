package core

import (
	"context"
	"fmt"
	"testing"

	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/fabric"
	"impliance/internal/query"
	"impliance/internal/storage"
	"impliance/internal/virt"
)

// handledByNode snapshots each data node's handled-message counter.
func handledByNode(e *Engine) map[fabric.NodeID]uint64 {
	out := map[fabric.NodeID]uint64{}
	for _, dn := range e.dataNodes() {
		_, _, handled := dn.node.Stats()
		out[dn.node.ID] = handled
	}
	return out
}

// touchedSince lists the data nodes whose handled counter moved.
func touchedSince(e *Engine, before map[fabric.NodeID]uint64) []fabric.NodeID {
	var out []fabric.NodeID
	for _, dn := range e.dataNodes() {
		_, _, handled := dn.node.Stats()
		if handled > before[dn.node.ID] {
			out = append(out, dn.node.ID)
		}
	}
	return out
}

// TestPointGetRoutesToOwners is the broadcast → routed acceptance check:
// a point Get on a healthy cluster contacts exactly one data node (≤ RF),
// and that node is one of the document's partition owners, while keyword
// search still fans out to every alive data node.
func TestPointGetRoutesToOwners(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 6 })
	var ids []docmodel.DocID
	for i := 0; i < 40; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("routed document %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()

	rf := e.cfg.Replication.FactorFor(0) // ClassUser
	for _, id := range ids {
		holders := e.smgr.Holders(id)
		if len(holders) != rf {
			t.Fatalf("doc %s holders = %v, want %d", id, holders, rf)
		}
		before := handledByNode(e)
		e.fab.ResetNetStats()
		if _, err := e.Get(id); err != nil {
			t.Fatal(err)
		}
		if msgs := e.fab.NetStats().Messages; msgs > uint64(2*rf) {
			t.Errorf("Get(%s) moved %d messages, want ≤ %d (request+reply per holder)", id, msgs, 2*rf)
		}
		touched := touchedSince(e, before)
		if len(touched) > rf {
			t.Errorf("Get(%s) touched %v, more than RF=%d nodes", id, touched, rf)
		}
		for _, n := range touched {
			owner := false
			for _, h := range holders {
				if h == n {
					owner = true
				}
			}
			if !owner {
				t.Errorf("Get(%s) touched non-owner %v (holders %v)", id, n, holders)
			}
		}
	}

	// Keyword search is semantically a fan-out: every alive data node
	// must be probed.
	before := handledByNode(e)
	if _, err := e.Search("routed", 0); err != nil {
		t.Fatal(err)
	}
	touched := touchedSince(e, before)
	if len(touched) < len(e.aliveData()) {
		t.Errorf("search touched %d/%d data nodes; index probes must fan out", len(touched), len(e.aliveData()))
	}
}

// TestFetchByIDGroupsPerOwner checks the batch point path: fetching many
// documents contacts each owning node once with a batch, never the whole
// cluster per document.
func TestFetchByIDGroupsPerOwner(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 5 })
	var ids []docmodel.DocID
	for i := 0; i < 30; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("batch doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()
	e.fab.ResetNetStats()
	docs, err := e.fetchByID(context.Background(), ids, callOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(ids) {
		t.Fatalf("fetched %d/%d", len(docs), len(ids))
	}
	// At most one get-batch call (plus reply) per data node.
	if msgs := e.fab.NetStats().Messages; msgs > uint64(2*len(e.dataNodes())) {
		t.Errorf("fetchByID moved %d messages for %d nodes", msgs, len(e.dataNodes()))
	}
}

// TestReplicaSetsStableUnderUnrelatedFailure is the ring-successor
// acceptance check: killing and recovering one data node must not move
// any document whose replica set did not include it.
func TestReplicaSetsStableUnderUnrelatedFailure(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 5 })
	var ids []docmodel.DocID
	for i := 0; i < 60; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("stable doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()
	before := map[docmodel.DocID][]fabric.NodeID{}
	for _, id := range ids {
		before[id] = e.smgr.Holders(id)
	}
	dead := e.dataNodes()[2].node.ID
	e.fab.Kill(dead)
	if _, err := e.RecoverDataNode(dead); err != nil {
		t.Fatal(err)
	}
	unrelated, moved := 0, 0
	for _, id := range ids {
		old := before[id]
		now := e.smgr.Holders(id)
		hadDead := false
		for _, n := range old {
			if n == dead {
				hadDead = true
			}
		}
		if hadDead {
			moved++
			continue
		}
		unrelated++
		if len(old) != len(now) {
			t.Fatalf("doc %s holder count changed %v -> %v", id, old, now)
		}
		for i := range old {
			if old[i] != now[i] {
				t.Errorf("doc %s moved %v -> %v though %v held no replica", id, old, now, dead)
			}
		}
	}
	if unrelated == 0 || moved == 0 {
		t.Fatalf("degenerate distribution: %d unrelated, %d moved", unrelated, moved)
	}
}

// TestHeartbeatTickReassignsDeadDataNode: heartbeat-driven membership —
// a dead data node still on the ring is recovered by the next tick.
func TestHeartbeatTickReassignsDeadDataNode(t *testing.T) {
	e := testEngine(t)
	var ids []docmodel.DocID
	for i := 0; i < 20; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("tick doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()
	dead := e.dataNodes()[0].node.ID
	e.fab.Kill(dead)
	if !e.smgr.InRing(dead) {
		t.Fatal("node should be on the ring before the tick")
	}
	e.HeartbeatTick()
	if e.smgr.InRing(dead) {
		t.Error("heartbeat tick should drop the dead node from the ring")
	}
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("doc %s unreadable after heartbeat recovery: %v", id, err)
		}
	}
}

// TestDerivedReplicationFollowsPolicy: annotation documents honor the
// derived-class replication factor — a policy asking for RF>1 gets real
// copies on every holder, not just a wider holder list.
func TestDerivedReplicationFollowsPolicy(t *testing.T) {
	e := testEngine(t, func(c *Config) {
		c.Replication = virt.ReplicationPolicy{Factor: map[virt.DataClass]int{
			virt.ClassUser: 2, virt.ClassDerived: 2, virt.ClassRegulatory: 3,
		}}
	})
	id, err := e.Ingest(textItem("John Smith loves the WidgetPro, it is excellent", "cc"))
	if err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	anns, err := e.AnnotationsOf(id)
	if err != nil || len(anns) == 0 {
		t.Fatalf("annotations = %d (%v)", len(anns), err)
	}
	for _, ann := range anns {
		holders := e.smgr.Holders(ann.ID)
		if len(holders) != 2 {
			t.Fatalf("annotation %s holders = %v, want RF 2", ann.ID, holders)
		}
		for _, h := range holders {
			if _, err := mustDataNode(t, e, h).store.Get(ann.ID); err != nil {
				t.Errorf("annotation %s replica missing on %s: %v", ann.ID, h, err)
			}
		}
	}
}

// TestRestartRecoversRoutingAndIndex: placement is a pure function of
// the ID and the ring, so a restarted appliance rebuilds routing and
// indexes from its segment stores — old documents stay retrievable and
// searchable and the ID allocator never re-mints a live ID. Recovery
// registration runs on replayed headers and reads materialize lazily.
func TestRestartRecoversRoutingAndIndex(t *testing.T) {
	testRestartRecoversRoutingAndIndex(t, "")
}

// TestRestartRecoversRoutingAndIndexSegmentBackend: naming the layout
// explicitly (StorageBackend = "segment", as the benchmark does) gives
// the same stores and the same restart contract as the default.
func TestRestartRecoversRoutingAndIndexSegmentBackend(t *testing.T) {
	testRestartRecoversRoutingAndIndex(t, storage.BackendSegment)
}

func testRestartRecoversRoutingAndIndex(t *testing.T, backend string) {
	dir := t.TempDir()
	cfg := Config{DataNodes: 4, GridNodes: 1, ClusterNodes: 1, Workers: 2, Dir: dir, StorageBackend: backend}
	e1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []docmodel.DocID
	for i := 0; i < 12; i++ {
		id, err := e1.Ingest(textItem(fmt.Sprintf("durable record %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	annotated, err := e1.Ingest(textItem("John Smith loves the WidgetPro, it is excellent", "cc"))
	if err != nil {
		t.Fatal(err)
	}
	e1.DrainBackground()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e2.Close() })
	for _, id := range ids {
		d, err := e2.Get(id)
		if err != nil {
			t.Fatalf("doc %s unreadable after restart: %v", id, err)
		}
		if d.Source != "u" {
			t.Errorf("doc %s header lost: %+v", id, d)
		}
	}
	rows, err := e2.Search("durable", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ids) {
		t.Errorf("search after restart = %d/%d", len(rows), len(ids))
	}
	// Discovery state replays too: annotation edges survive the restart.
	anns, err := e2.AnnotationsOf(annotated)
	if err != nil || len(anns) == 0 {
		t.Errorf("annotations lost across restart: %d (%v)", len(anns), err)
	}
	fresh, err := e2.Ingest(textItem("minted after restart", "u"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if fresh == id {
			t.Fatalf("ID allocator re-minted live ID %s", id)
		}
	}
	e2.DrainBackground()
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening with a different data-node count moves the hash
	// placement; boot-time migration must put every document onto its
	// new ring owners so routed reads still find it.
	grown := cfg
	grown.DataNodes = 7
	e3, err := Open(grown)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e3.Close() })
	for _, id := range append(ids, fresh) {
		if _, err := e3.Get(id); err != nil {
			t.Errorf("doc %s unreadable after reopening with more nodes: %v", id, err)
		}
	}
	rows, err = e3.Search("durable", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ids) {
		t.Errorf("search after regrow = %d/%d", len(rows), len(ids))
	}
}

// TestRevivedNodeQuarantinedUntilRecovery: a node that missed replica
// writes while dead must not resume routing or answering after a bare
// Revive — its gaps would surface as missing documents. The dirty
// quarantine keeps successors serving until recovery reassigns the ring.
func TestRevivedNodeQuarantinedUntilRecovery(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 4 })
	var ids []docmodel.DocID
	for i := 0; i < 20; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("pre kill %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()

	victim := e.dataNodes()[1]
	e.fab.Kill(victim.node.ID)
	for i := 0; i < 20; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("during outage %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()
	if !victim.dirty.Load() {
		t.Fatal("victim missed replica writes but was not quarantined")
	}

	e.fab.Revive(victim.node.ID)
	// No recovery ran: the revived node must stay out of routing.
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("doc %s unreadable after bare revival: %v", id, err)
		}
	}
	docs, err := e.scanDocs(context.Background(), expr.True())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(ids) {
		t.Errorf("scan after bare revival = %d/%d (revived node answering with gaps?)", len(docs), len(ids))
	}
	// The next heartbeat notices the quarantine and reassigns the ring.
	e.HeartbeatTick()
	if e.smgr.InRing(victim.node.ID) {
		t.Error("heartbeat should remove the quarantined node from the ring")
	}
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("doc %s unreadable after quarantine recovery: %v", id, err)
		}
	}
}

// TestFacetsDoNotDoubleCountAfterRevival: a node recovery removed from
// the ring must stay out of index fan-outs even when revived, or its
// stale index entries double-count facets and re-answer searches.
func TestFacetsDoNotDoubleCountAfterRevival(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 4 })
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := e.Ingest(Item{
			Body: docmodel.Object(
				docmodel.F("text", docmodel.String("facet corpus entry")),
				docmodel.F("kind", docmodel.String([]string{"a", "b"}[i%2])),
			),
			MediaType: "text/plain", Source: "f",
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	victim := e.dataNodes()[0].node.ID
	e.fab.Kill(victim)
	e.HeartbeatTick()   // ring removal + background re-index on new owners
	e.DrainBackground() // fence the index catch-up
	e.fab.Revive(victim)

	res, err := e.Facets(query.FacetRequest{Keyword: "facet", Dimensions: []string{"/kind"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != n {
		t.Errorf("facet total after revival = %d, want %d", res.Total, n)
	}
	sum := 0
	for _, b := range res.Dimensions[0].Buckets {
		sum += b.Count
	}
	if sum != n {
		t.Errorf("facet counts sum to %d after revival, want %d (revived index double-counted)", sum, n)
	}
	rows, err := e.Search("facet", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Errorf("search after revival = %d/%d", len(rows), n)
	}
}

// TestFacetsCountQuarantinedHoldersPostings: a node revived without
// recovery is quarantined from store reads (it missed writes) but still
// holds the postings of everything it indexed before the outage, and
// nothing else holds them until recovery re-indexes. Keyword search
// already reaches it (it is an alive ring member); the facet router must
// too, or the bucket counts fall below the candidate total.
func TestFacetsCountQuarantinedHoldersPostings(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 4 })
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := e.Ingest(catItem(fmt.Sprintf("facet corpus entry %d", i), []string{"a", "b"}[i%2])); err != nil {
				t.Fatal(err)
			}
		}
		e.DrainBackground()
	}
	ingest(30)
	victim := e.dataNodes()[1]
	e.fab.Kill(victim.node.ID)
	ingest(30)
	if !victim.dirty.Load() {
		t.Fatal("victim missed replica writes but was not quarantined")
	}
	e.fab.Revive(victim.node.ID) // no heartbeat: revived without recovery

	res, err := e.Facets(query.FacetRequest{Keyword: "facet", Dimensions: []string{"/cat"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 60 {
		t.Fatalf("facet total = %d, want 60", res.Total)
	}
	sum := 0
	for _, b := range res.Dimensions[0].Buckets {
		sum += b.Count
	}
	if sum != res.Total {
		t.Errorf("facet counts sum to %d, total %d (quarantined holder's postings dropped)", sum, res.Total)
	}
}

// TestRejoinServesPointOpsWithZeroMisses is the elastic-membership
// acceptance check: a node removed by HandleNodeFailure and then revived
// re-joins the ring on the next heartbeat tick, point operations see zero
// Get misses during the dual-ownership window (reads route to old owners
// until each partition's catch-up watermark closes), and afterwards the
// node serves point ops again with no double-counted search or facets.
func TestRejoinServesPointOpsWithZeroMisses(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 4 })
	var ids []docmodel.DocID
	for i := 0; i < 50; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("elastic doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()

	victim := e.dataNodes()[1]
	e.fab.Kill(victim.node.ID)
	// The workload continues through the outage; the victim misses
	// replica writes and is quarantined.
	for i := 0; i < 30; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("outage doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()
	e.HeartbeatTick() // dead node: ring removal + repair
	e.DrainBackground()
	if e.smgr.InRing(victim.node.ID) {
		t.Fatal("dead node still on the ring")
	}

	e.fab.Revive(victim.node.ID)
	e.HeartbeatTick() // revived node: re-join with background catch-up
	if !e.smgr.InRing(victim.node.ID) {
		t.Fatal("revived node did not re-join the ring on the heartbeat tick")
	}
	// Zero Get misses during the dual-ownership window: catch-up tasks
	// are racing these reads on the background pool.
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("Get(%s) missed during the hand-off window: %v", id, err)
		}
	}
	e.DrainBackground()
	if pending := e.smgr.HandoffPending(); pending != 0 {
		t.Fatalf("%d hand-off windows still open after drain", pending)
	}

	// The re-joined node serves point ops again: it is the read primary
	// for a share of the corpus, point reads route to it, and every Get
	// that misses the point cache reaches it over the fabric. Gets served
	// from entries filled after the window closed are valid and touch no
	// node, so only cache misses are counted.
	_, _, handledBefore := victim.node.Stats()
	primaries, missed := 0, uint64(0)
	for _, id := range ids {
		holders := e.smgr.Holders(id)
		if len(holders) == 0 || holders[0] != victim.node.ID {
			continue
		}
		primaries++
		if dn, err := e.readHolderFor(id); err != nil || dn != victim {
			t.Errorf("point reads of %s do not route to the re-joined primary (err %v)", id, err)
		}
		misses := e.CacheStats().PointMisses
		if _, err := e.Get(id); err != nil {
			t.Errorf("Get(%s) via re-joined primary failed: %v", id, err)
		}
		missed += e.CacheStats().PointMisses - misses
	}
	if primaries == 0 {
		t.Fatal("re-joined node is primary for nothing")
	}
	if _, _, handled := victim.node.Stats(); handled-handledBefore < missed {
		t.Errorf("re-joined node handled %d routed ops for %d point-cache misses", handled-handledBefore, missed)
	}
	// No ghosts, no double counts: search and scans see each doc once.
	rows, err := e.Search("doc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ids) {
		t.Errorf("search after re-join = %d/%d", len(rows), len(ids))
	}
	docs, err := e.scanDocs(context.Background(), expr.True())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(ids) {
		t.Errorf("scan after re-join = %d/%d", len(docs), len(ids))
	}
	if under := len(e.smgr.UnderReplicated()); under != 0 {
		t.Errorf("%d documents under-replicated after re-join", under)
	}
}

// TestHeartbeatHealsDegradedWhenBlockedTargetRevives: a document left
// Unrepaired because its repair target was down must leave
// UnderReplicated via the heartbeat's repair pass once the target serves
// again.
func TestHeartbeatHealsDegradedWhenBlockedTargetRevives(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 4 })
	for i := 0; i < 60; i++ {
		if _, err := e.Ingest(textItem(fmt.Sprintf("degraded doc %d", i), "u")); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	// Two nodes go down; recovering the first blocks on the second.
	blocked := e.dataNodes()[3]
	e.fab.Kill(blocked.node.ID)
	dead := e.dataNodes()[0].node.ID
	e.fab.Kill(dead)
	if _, err := e.RecoverDataNode(dead); err != nil {
		t.Fatal(err)
	}
	if len(e.smgr.UnderReplicated()) == 0 {
		t.Skip("no repairs blocked on the down target (unlucky hash layout)")
	}
	// The blocked target revives; heartbeat recovery + repair passes heal
	// the degraded set (the revived node is first recovered off the ring,
	// then re-joined, then the repair pass fills remaining gaps).
	e.fab.Revive(blocked.node.ID)
	for i := 0; i < 3; i++ {
		e.HeartbeatTick()
		e.DrainBackground()
	}
	if under := e.smgr.UnderReplicated(); len(under) != 0 {
		t.Errorf("%d documents still under-replicated after the blocked target revived", len(under))
	}
}

// TestRegulatoryClassSurvivesRestart: the data class is persisted in the
// document header, so a restarted appliance re-registers a regulatory
// document at RF3 — not the RF2 a shape-based guess would give it.
func TestRegulatoryClassSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataNodes: 4, GridNodes: 1, ClusterNodes: 1, Workers: 2, Dir: dir}
	e1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []docmodel.DocID
	for i := 0; i < 8; i++ {
		item := textItem(fmt.Sprintf("retention record %d", i), "ledger")
		item.Class = virt.ClassRegulatory
		id, err := e1.Ingest(item)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e1.DrainBackground()
	for _, id := range ids {
		if got := len(e1.smgr.Holders(id)); got != 3 {
			t.Fatalf("regulatory doc %s placed at RF%d before restart", id, got)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e2.Close() })
	for _, id := range ids {
		holders := e2.smgr.Holders(id)
		if len(holders) != 3 {
			t.Errorf("regulatory doc %s recovered at RF%d, want 3 (class lost in header?)", id, len(holders))
		}
		// Boot-time migration must have put real copies on every holder.
		for _, h := range holders {
			if _, err := mustDataNode(t, e2, h).store.Get(id); err != nil {
				t.Errorf("regulatory doc %s missing on holder %s after restart: %v", id, h, err)
			}
		}
	}
}

// TestRebalanceOnSkewMovesLoadOffHotNode: skewed point reads trigger a
// ring-weight cut executed through the hand-off machinery, with every
// document still reachable afterwards.
func TestRebalanceOnSkewMovesLoadOffHotNode(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 3 })
	var ids []docmodel.DocID
	for i := 0; i < 150; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("hot doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()
	// Hammer the docs whose primary is data-1 to skew the load signal.
	hot := e.dataNodes()[0].node.ID
	for _, id := range ids {
		if e.smgr.Holders(id)[0] == hot {
			for r := 0; r < 12; r++ {
				if _, err := e.Get(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	moved, adjusted := e.RebalanceOnSkew()
	if !adjusted {
		t.Fatal("skewed load did not trigger a rebalance")
	}
	if moved == 0 {
		t.Fatal("rebalance moved no documents")
	}
	// Reads stay clean while the rebalance hand-off runs in background.
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("Get(%s) missed during rebalance: %v", id, err)
		}
	}
	e.DrainBackground()
	if pending := e.smgr.HandoffPending(); pending != 0 {
		t.Fatalf("%d rebalance windows still open after drain", pending)
	}
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("Get(%s) failed after rebalance: %v", id, err)
		}
	}
	rows, err := e.Search("hot", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ids) {
		t.Errorf("search after rebalance = %d/%d", len(rows), len(ids))
	}
}

// TestHeartbeatAutoRebalancesSustainedHotNode: a sustained hot node
// sheds ring weight purely through heartbeat ticks — no explicit
// RebalanceOnSkew call — once the cadence and load threshold are met,
// and every document stays reachable through the hand-off.
func TestHeartbeatAutoRebalancesSustainedHotNode(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 3 })
	var ids []docmodel.DocID
	for i := 0; i < 150; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("sustained doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()

	hot := e.dataNodes()[0].node.ID
	weightBefore := e.smgr.NodeWeight(hot)
	if weightBefore == 0 {
		t.Fatal("hot node has no ring weight")
	}
	// Sustained skew: hammer the docs whose primary is the hot node,
	// ticking the heartbeat as time passes. No rebalance call anywhere.
	for round := 0; round < AutoRebalanceEvery+1; round++ {
		for _, id := range ids {
			if e.smgr.Holders(id)[0] == hot {
				for r := 0; r < 8; r++ {
					if _, err := e.Get(id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		e.HeartbeatTick()
	}
	if after := e.smgr.NodeWeight(hot); after >= weightBefore {
		t.Fatalf("heartbeat never shed hot node weight: %d -> %d", weightBefore, after)
	}
	e.DrainBackground()
	if pending := e.smgr.HandoffPending(); pending != 0 {
		t.Fatalf("%d auto-rebalance windows still open after drain", pending)
	}
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("Get(%s) failed after auto-rebalance: %v", id, err)
		}
	}
}

// TestHeartbeatSkipsRebalanceWithoutLoad: an idle cluster's heartbeat
// must not churn ring weights on noise — the load threshold gates the
// pass.
func TestHeartbeatSkipsRebalanceWithoutLoad(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 3 })
	var weights []int
	for _, id := range e.DataNodeIDs() {
		weights = append(weights, e.smgr.NodeWeight(id))
	}
	for round := 0; round < 3*AutoRebalanceEvery; round++ {
		e.HeartbeatTick()
	}
	for i, id := range e.DataNodeIDs() {
		if w := e.smgr.NodeWeight(id); w != weights[i] {
			t.Errorf("idle heartbeat changed %s weight %d -> %d", id, weights[i], w)
		}
	}
}

// TestAddDataNodeGrowsCluster: a brand-new data node provisioned at
// runtime joins through the same hand-off machinery and ends up serving
// a share of the corpus.
func TestAddDataNodeGrowsCluster(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 3 })
	var ids []docmodel.DocID
	for i := 0; i < 80; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("growth doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()
	fresh, moved, err := e.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("new node attracted no documents")
	}
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("Get(%s) missed while the new node joins: %v", id, err)
		}
	}
	e.DrainBackground()
	primaries := 0
	for _, id := range ids {
		holders := e.smgr.Holders(id)
		if holders[0] == fresh {
			primaries++
		}
		if _, err := e.Get(id); err != nil {
			t.Errorf("Get(%s) failed after growth: %v", id, err)
		}
	}
	if primaries == 0 {
		t.Error("new node is primary for nothing after joining")
	}
	docs, err := e.scanDocs(context.Background(), expr.True())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(ids) {
		t.Errorf("scan after growth = %d/%d", len(docs), len(ids))
	}
}

// TestFailureDuringHandoffWindowStillCloses: a node failure while
// hand-off windows are open fences the in-flight catch-up plans
// (generation re-arm) and re-plans them, so every window still closes
// with complete copies and no document is stranded on a promoted
// successor that never received it.
func TestFailureDuringHandoffWindowStillCloses(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 5; c.Workers = 1 })
	var ids []docmodel.DocID
	for i := 0; i < 60; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("window doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()

	rejoiner := e.dataNodes()[1].node.ID
	e.fab.Kill(rejoiner)
	e.HeartbeatTick()
	e.DrainBackground()
	e.fab.Revive(rejoiner)
	e.HeartbeatTick() // windows open, catch-up queued on the single worker
	if e.smgr.HandoffPending() == 0 {
		t.Fatal("no windows open; scenario degenerate")
	}
	// A different node dies while the windows are still open.
	casualty := e.dataNodes()[3].node.ID
	e.fab.Kill(casualty)
	if _, err := e.RecoverDataNode(casualty); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	if pending := e.smgr.HandoffPending(); pending != 0 {
		t.Fatalf("%d windows never closed after mid-window failure", pending)
	}
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("Get(%s) failed after mid-window failure: %v", id, err)
			continue
		}
		// Every named holder physically has the document.
		for _, h := range e.smgr.Holders(id) {
			if _, err := mustDataNode(t, e, h).store.Get(id); err != nil {
				t.Errorf("doc %s missing on holder %s: %v", id, h, err)
			}
		}
	}
}

// TestAddDataNodeConcurrentWithReads: growing the cluster races point
// reads and background work — the copy-on-write topology must keep every
// concurrent Get safe (this test is load-bearing under -race).
func TestAddDataNodeConcurrentWithReads(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 3 })
	var ids []docmodel.DocID
	for i := 0; i < 60; i++ {
		id, err := e.Ingest(textItem(fmt.Sprintf("race doc %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.DrainBackground()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 400; i++ {
			if _, err := e.Get(ids[i%len(ids)]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if _, _, err := e.AddDataNode(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("concurrent Get failed while the cluster grew: %v", err)
	}
	e.DrainBackground()
	for _, id := range ids {
		if _, err := e.Get(id); err != nil {
			t.Errorf("Get(%s) failed after growth: %v", id, err)
		}
	}
}

// TestReopenWithFewerNodesKeepsDocsReachable: WAL directories beyond the
// configured node count still feed recovery — their documents migrate to
// the current owners and the ID allocator never regresses below their
// persisted Seqs.
func TestReopenWithFewerNodesKeepsDocsReachable(t *testing.T) {
	dir := t.TempDir()
	big := Config{DataNodes: 5, GridNodes: 1, ClusterNodes: 1, Workers: 2, Dir: dir}
	e1, err := Open(big)
	if err != nil {
		t.Fatal(err)
	}
	var ids []docmodel.DocID
	for i := 0; i < 25; i++ {
		id, err := e1.Ingest(textItem(fmt.Sprintf("shrink survivor %d", i), "u"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e1.DrainBackground()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	small := big
	small.DataNodes = 2
	e2, err := Open(small)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e2.Close() })
	for _, id := range ids {
		if _, err := e2.Get(id); err != nil {
			t.Errorf("doc %s unreadable after shrinking membership: %v", id, err)
		}
	}
	rows, err := e2.Search("shrink", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ids) {
		t.Errorf("search after shrink = %d/%d", len(rows), len(ids))
	}
	fresh, err := e2.Ingest(textItem("minted after shrink", "u"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if fresh == id {
			t.Fatalf("ID allocator re-minted live ID %s from an orphan WAL", id)
		}
	}
}

// TestScanStillReachesAllNodes: distributed scans are semantically a
// fan-out — every alive data node contributes its answering partitions.
func TestScanStillReachesAllNodes(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 4 })
	for i := 0; i < 40; i++ {
		if _, err := e.Ingest(Item{
			Body:      docmodel.Object(docmodel.F("k", docmodel.Int(int64(i)))),
			MediaType: "relational/row", Source: "u",
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	before := handledByNode(e)
	docs, err := e.scanDocs(context.Background(), expr.True())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 40 {
		t.Fatalf("scan docs = %d (ownership dedup broken?)", len(docs))
	}
	if touched := touchedSince(e, before); len(touched) != len(e.dataNodes()) {
		t.Errorf("scan touched %d/%d nodes", len(touched), len(e.dataNodes()))
	}
}
