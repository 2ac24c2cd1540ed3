package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"impliance/internal/docmodel"
	"impliance/internal/exec"
	"impliance/internal/expr"
	"impliance/internal/fabric"
	"impliance/internal/plan"
	"impliance/internal/query"
	"impliance/internal/sched"
)

// churnTransport runs a hook before every call it forwards, so a test
// can move cluster state under each individual node call of a scatter.
type churnTransport struct {
	fabric.Transport
	mu   sync.Mutex
	hook func()
}

func (c *churnTransport) setHook(h func()) {
	c.mu.Lock()
	c.hook = h
	c.mu.Unlock()
}

func (c *churnTransport) CallCtx(ctx context.Context, to fabric.NodeID, kind string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	if c.hook != nil {
		c.hook()
	}
	c.mu.Unlock()
	return c.Transport.CallCtx(ctx, to, kind, payload)
}

// scatterCorpus ingests the fixed corpus every scenario queries. IDs are
// engine-minted in ingest order, so equal corpora answer with equal IDs
// on every engine.
func scatterCorpus(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < 120; i++ {
		if _, err := e.Ingest(Item{
			Body: docmodel.Object(
				docmodel.F("k", docmodel.Int(int64(i%7))),
				docmodel.F("cat", docmodel.String(fmt.Sprintf("c%d", i%3))),
				docmodel.F("text", docmodel.String("alpha record")),
			),
			MediaType: "relational/row",
			Source:    "corpus",
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
}

func joinIDs(docs []*docmodel.Document) string {
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d.ID.String()
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

func rowDocs(rows []*exec.Row) []*docmodel.Document {
	docs := make([]*docmodel.Document, len(rows))
	for i, r := range rows {
		docs[i] = r.Docs[0]
	}
	return docs
}

// scatterOps are the read shapes that share the routed scatter, each
// rendering its answer canonically. needsPool marks the one that cannot
// run while the test pins the execution pool's only worker.
var scatterOps = []struct {
	name      string
	needsPool bool
	run       func(t *testing.T, e *Engine) string
}{
	{"scan", false, func(t *testing.T, e *Engine) string {
		res, err := e.Run(plan.Query{Filter: expr.Cmp("/k", expr.OpLt, docmodel.Int(3))})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Access.Kind != plan.AccessScan {
			t.Fatalf("scan op planned %s", res.Plan)
		}
		return joinIDs(rowDocs(res.Rows))
	}},
	{"stream", true, func(t *testing.T, e *Engine) string {
		cur, err := e.RunStream(context.Background(), plan.Query{Filter: expr.Cmp("/k", expr.OpLt, docmodel.Int(3))})
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var docs []*docmodel.Document
		for cur.Next() {
			docs = append(docs, cur.Row().Docs[0])
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return joinIDs(docs)
	}},
	{"stream driver", false, func(t *testing.T, e *Engine) string {
		var docs []*docmodel.Document
		err := e.scanPartitions(context.Background(), expr.Cmp("/k", expr.OpLt, docmodel.Int(3)), streamInFlight,
			func(page []*docmodel.Document) bool {
				docs = append(docs, page...)
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		return joinIDs(docs)
	}},
	{"aggregate", false, func(t *testing.T, e *Engine) string {
		res, err := e.Run(plan.Query{
			Filter:  expr.Cmp("/k", expr.OpLt, docmodel.Int(5)),
			GroupBy: &expr.GroupSpec{By: []string{"/cat"}, Aggs: []expr.AggSpec{{Kind: expr.AggCount}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = fmt.Sprintf("%s=%d", r.Cols[0].StringVal(), r.Cols[1].IntVal())
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}},
	{"keyword facet", false, func(t *testing.T, e *Engine) string {
		res, err := e.Facets(query.FacetRequest{Keyword: "alpha", Dimensions: []string{"/cat"}})
		if err != nil {
			t.Fatal(err)
		}
		out := []string{fmt.Sprintf("total=%d", res.Total)}
		for _, b := range res.Dimensions[0].Buckets {
			out = append(out, fmt.Sprintf("%s=%d", b.Value.StringVal(), b.Count))
		}
		return strings.Join(out, ",")
	}},
	{"value-eq", false, func(t *testing.T, e *Engine) string {
		res, err := e.Run(plan.Query{Filter: expr.Cmp("/k", expr.OpEq, docmodel.Int(3))})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Access.Kind != plan.AccessValueEq {
			t.Fatalf("value-eq op planned %s", res.Plan)
		}
		return joinIDs(rowDocs(res.Rows))
	}},
	{"value-range", false, func(t *testing.T, e *Engine) string {
		docs, err := e.lookupAndFetch(context.Background(), valueLookupReq{
			Path: "/k", Range: true, Lo: docmodel.EncodeValue(docmodel.Int(5)), LoInc: true,
		}, callOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return joinIDs(docs)
	}},
}

// TestScatterShapesAgreeUnderChurn runs every read shape that rides the
// routed scatter (a) on a settled cluster, (b) with hand-off windows
// held open, and (c) with the membership generation moving under every
// single node call — and requires the same answers each time. In (c) no
// round ever settles, so nothing may be cached from it.
func TestScatterShapesAgreeUnderChurn(t *testing.T) {
	settled := map[string]string{}
	t.Run("settled", func(t *testing.T) {
		e := testEngine(t, func(c *Config) { c.DataNodes = 5 })
		scatterCorpus(t, e)
		for _, op := range scatterOps {
			settled[op.name] = op.run(t, e)
		}
		// Ground truth for the ID-valued shapes: i%7 < 3 holds for 52 of
		// 120 documents, == 3 for 17, >= 5 for 34.
		for name, want := range map[string]int{"scan": 52, "stream": 52, "stream driver": 52, "value-eq": 17, "value-range": 34} {
			if got := strings.Count(settled[name], ",") + 1; got != want {
				t.Errorf("%s returned %d documents, want %d", name, got, want)
			}
		}
		if want := "total=120,c0=40,c1=40,c2=40"; settled["keyword facet"] != want {
			t.Errorf("keyword facet = %s, want %s", settled["keyword facet"], want)
		}
	})

	t.Run("window open", func(t *testing.T) {
		e := testEngine(t, func(c *Config) {
			c.DataNodes = 5
			c.Workers = 1
		})
		scatterCorpus(t, e)
		// Outage and recovery take a node off the ring; pinning the pool's
		// only worker then keeps the re-join's catch-up from running, so
		// its dual-ownership windows stay open while the shapes run.
		victim := e.dataNodes()[1].node.ID
		e.fab.Kill(victim)
		e.HeartbeatTick()
		e.DrainBackground()
		unblock := make(chan struct{})
		defer close(unblock)
		e.pool.Submit(sched.Background, func() { <-unblock })
		e.fab.Revive(victim)
		e.HeartbeatTick()
		if e.smgr.HandoffPending() == 0 {
			t.Fatal("no hand-off windows open; scenario degenerate")
		}
		for _, op := range scatterOps {
			if op.needsPool {
				continue
			}
			if got := op.run(t, e); got != settled[op.name] {
				t.Errorf("%s mid-window = %s, settled %s", op.name, got, settled[op.name])
			}
		}
		if e.smgr.HandoffPending() == 0 {
			t.Fatal("windows closed under the pinned pool; scenario degenerate")
		}
	})

	t.Run("generation moves every call", func(t *testing.T) {
		var tr *churnTransport
		e := testEngine(t, func(c *Config) {
			c.DataNodes = 5
			if c.Transport == nil {
				c.Transport = fabric.New()
			}
			tr = &churnTransport{Transport: c.Transport}
			c.Transport = tr
		})
		scatterCorpus(t, e)
		// Each call re-weights one ring member, which opens (or re-arms)
		// hand-off windows and advances the membership generation. No
		// catch-up is ever scheduled, so data and postings stay where the
		// windows' read owners expect them: the right answers exist, but
		// no plan → call round can observe a stable generation.
		node := e.dataNodes()[2].node.ID
		base := e.smgr.NodeWeight(node)
		moves := 0
		tr.setHook(func() {
			moves++
			e.smgr.AdjustNodeWeight(node, base-(base/2)*(moves%2), e.eligibleDataIDs())
		})
		for _, op := range scatterOps {
			if got := op.run(t, e); got != settled[op.name] {
				t.Errorf("%s under moving generation = %s, settled %s", op.name, got, settled[op.name])
			}
		}
		tr.setHook(nil)
		if moves == 0 || e.smgr.HandoffPending() == 0 {
			t.Fatalf("generation never moved (%d calls, %d windows); scenario degenerate", moves, e.smgr.HandoffPending())
		}
		if n := e.caches.PartialLen(); n != 0 {
			t.Errorf("%d partials cached from rounds that never settled", n)
		}
	})
}
