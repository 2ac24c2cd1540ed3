package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/plan"
	"impliance/internal/sched"
)

// fieldItem builds a doc with one typed field plus a text field, the
// heterogeneous-corpus shape value routing is about: each source has its
// own path, so a path's postings live in few partitions.
func fieldItem(field string, v docmodel.Value, source string) Item {
	return Item{
		Body: docmodel.Object(
			docmodel.F(field, v),
			docmodel.F("text", docmodel.String("payload for "+source)),
		),
		MediaType: "relational/row",
		Source:    source,
	}
}

// runEq runs an equality value query and returns the matched doc IDs.
func runEq(t *testing.T, e *Engine, path string, v docmodel.Value) []docmodel.DocID {
	t.Helper()
	res, err := e.Run(plan.Query{Filter: expr.Cmp(path, expr.OpEq, v)})
	if err != nil {
		t.Fatal(err)
	}
	var ids []docmodel.DocID
	for _, r := range res.Rows {
		ids = append(ids, r.Docs[0].ID)
	}
	return ids
}

// TestValueLookupRoutesToPathPartitions is the broadcast → routed
// acceptance check for value predicates: a lookup on a path held by only
// a few documents probes only the nodes owning those documents'
// partitions (plus the fetch), never the whole cluster, and returns
// exactly the documents ingested under the path.
func TestValueLookupRoutesToPathPartitions(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 6 })
	// Filler: 60 docs under unrelated paths, spread over the partitions.
	for i := 0; i < 60; i++ {
		if _, err := e.Ingest(fieldItem(fmt.Sprintf("f%02d", i%20), docmodel.Int(int64(i)), "filler")); err != nil {
			t.Fatal(err)
		}
	}
	// The queried source: 3 docs under the path /rare.
	var want []docmodel.DocID
	for i := 0; i < 3; i++ {
		id, err := e.Ingest(fieldItem("rare", docmodel.Int(42), "needle"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	e.DrainBackground()

	_, probesBefore, prunedBefore, _ := e.ValueProbeStats()
	before := handledByNode(e)
	got := runEq(t, e, "/rare", docmodel.Int(42))
	if !reflect.DeepEqual(got, sortedIDs(want)) {
		t.Fatalf("routed lookup = %v, want %v", got, sortedIDs(want))
	}
	touched := touchedSince(e, before)
	// 3 docs hash into ≤ 3 partitions, so probes reach ≤ 3 nodes and the
	// fetch reaches ≤ 3 primaries — strictly fewer than the 6-node
	// broadcast would.
	if len(touched) >= len(e.aliveData()) {
		t.Errorf("value lookup touched %d/%d nodes — still a broadcast", len(touched), len(e.aliveData()))
	}
	_, probes, pruned, _ := e.ValueProbeStats()
	if sent := probes - probesBefore; sent > 3 {
		t.Errorf("lookup sent %d probes, want ≤ 3 (one per partition owner)", sent)
	}
	if pruned == prunedBefore {
		t.Error("path statistics pruned no partitions on a rare path")
	}
}

// TestValueLookupKindPruning: an equality probe of a kind a partition
// never stored under the path is pruned by the value-type histogram even
// though the path itself is present.
func TestValueLookupKindPruning(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.DataNodes = 4 })
	for i := 0; i < 10; i++ {
		if _, err := e.Ingest(fieldItem("tag", docmodel.String(fmt.Sprintf("t%d", i)), "tags")); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	_, probesBefore, _, _ := e.ValueProbeStats()
	if got := runEq(t, e, "/tag", docmodel.Int(7)); len(got) != 0 {
		t.Fatalf("Int probe over string postings matched %v", got)
	}
	if _, probes, _, _ := e.ValueProbeStats(); probes != probesBefore {
		t.Errorf("kind histogram should prune every probe, sent %d", probes-probesBefore)
	}
}

// TestValueLookupDuringHandoffWindow is the mid-hand-off correctness
// check: a value query landing while dual-ownership windows are open
// (catch-up pinned behind a blocked single-worker pool) must fall back
// to broadcasting the windowed partitions and return exactly the
// documents the settled, routed probe returns after the windows close —
// including a document written mid-window, whose index entry lives on
// the post-hand-off owner.
func TestValueLookupDuringHandoffWindow(t *testing.T) {
	e := testEngine(t, func(c *Config) {
		c.DataNodes = 5
		c.Workers = 1
		c.SyncIndexing = true // mid-window ingest must be index-visible
	})
	var want []docmodel.DocID
	for i := 0; i < 60; i++ {
		id, err := e.Ingest(fieldItem("k", docmodel.Int(int64(i%7)), "corpus"))
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			want = append(want, id)
		}
	}
	e.DrainBackground()

	// Outage and recovery take the node off the ring...
	victim := e.dataNodes()[1].node.ID
	e.fab.Kill(victim)
	e.HeartbeatTick()
	e.DrainBackground()
	// ...then pin the pool so the re-join's catch-up cannot run and the
	// dual-ownership windows stay open while we query.
	unblock := make(chan struct{})
	e.pool.Submit(sched.Background, func() { <-unblock })
	e.fab.Revive(victim)
	e.HeartbeatTick()
	if e.smgr.HandoffPending() == 0 {
		close(unblock)
		t.Fatal("no hand-off windows open; scenario degenerate")
	}

	got := runEq(t, e, "/k", docmodel.Int(3))
	if !reflect.DeepEqual(got, sortedIDs(want)) {
		t.Errorf("mid-window lookup = %v, want %v", got, sortedIDs(want))
	}
	if _, _, _, fallbacks := e.ValueProbeStats(); fallbacks == 0 {
		t.Error("mid-window lookup did not take the broadcast fallback")
	}
	// A write landing mid-window is indexed on the post-hand-off owner;
	// the fallback probe must still surface it.
	midID, err := e.Ingest(fieldItem("k", docmodel.Int(3), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, midID)
	if e.smgr.HandoffPending() == 0 {
		t.Fatal("windows closed under the pinned pool; scenario degenerate")
	}
	got = runEq(t, e, "/k", docmodel.Int(3))
	if !reflect.DeepEqual(got, sortedIDs(want)) {
		t.Errorf("mid-window lookup after write = %v, want %v", got, sortedIDs(want))
	}

	// After the windows close, the settled routed probe returns the same
	// set.
	close(unblock)
	e.DrainBackground()
	if pending := e.smgr.HandoffPending(); pending != 0 {
		t.Fatalf("%d windows still open after drain", pending)
	}
	got = runEq(t, e, "/k", docmodel.Int(3))
	if !reflect.DeepEqual(got, sortedIDs(want)) {
		t.Errorf("post-close lookup = %v, want %v", got, sortedIDs(want))
	}
}

// sortedIDs returns a sorted copy.
func sortedIDs(ids []docmodel.DocID) []docmodel.DocID {
	out := append([]docmodel.DocID{}, ids...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
