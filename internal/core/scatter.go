package core

import (
	"context"
	"sort"

	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/fabric"
)

// Routed scatter: the one place the read path decides which node answers
// for a partition, and what happens when membership moves under the
// request (paper §3.3: ship one operator to the nodes that hold the
// data, merge the partials). Scans, aggregates, facets and value probes
// are all callers; each supplies only what differs — which partitions it
// needs, how a partition is planned, and how replies fold.
//
// A partition is planned in one of two modes:
//
//   - answering: the single answering owner (first eligible read-side
//     owner). For store-backed work — scans, aggregates — where asking a
//     replica too would count documents twice. The owner's store holds
//     the partition's complete data whatever the ring does next, so a
//     plan stays valid for as long as its nodes stay up.
//   - holders: every alive ring member among the read-side owners that
//     the caller's statistics admit. For index-backed work — value
//     probes, facets — where a partition's postings sit on whichever
//     owner was answering when each document was indexed. Postings move
//     with ownership, so such a plan is only as good as the membership
//     generation it was made under: partitions inside an open hand-off
//     window, and every partition on the last attempt, go to the whole
//     ring — the only set guaranteed to cover both sides of a move.

// scatterRetries bounds how often a routed round re-plans because
// membership moved under it. Churn is rare, so the retry is almost never
// taken; the last attempt plans the always-covering whole-ring set.
const scatterRetries = 2

// partPlan is one attempt's assignment of partitions to the data nodes
// that will answer for them.
type partPlan struct {
	e        *Engine
	covering bool // last attempt: holders widen to the whole ring
	targets  map[*dataNode][]int
	ring     []*dataNode // built lazily: only windows and the covering attempt need it
}

func newPartPlan(e *Engine, covering bool) *partPlan {
	return &partPlan{e: e, covering: covering, targets: map[*dataNode][]int{}}
}

// answering plans p onto its answering owner, reporting whether one is
// reachable (with none, no fan-out could cover the partition either). A
// quarantined owner is skipped: its store has gaps.
func (pl *partPlan) answering(p int) bool {
	owner, ok := pl.e.smgr.AnsweringNode(p, func(id fabric.NodeID) bool {
		n, ok := pl.e.dataNode(id)
		return ok && pl.e.eligible(n)
	})
	if !ok {
		return false
	}
	dn, _ := pl.e.dataNode(owner)
	pl.targets[dn] = append(pl.targets[dn], p)
	return true
}

// holders plans p onto every alive ring member among its read-side
// owners that admit accepts — or onto the whole ring when the caller
// says the partition's window is open, or on the covering attempt. A
// quarantined owner still holding the partition's postings keeps
// answering: its index is not stale, only its store may lag, and nothing
// else holds those postings until recovery re-indexes them. It reports
// whether the partition was pruned: some holder was reachable and the
// statistics rejected them all. A partition with no reachable holder is
// a coverage gap, not a prune.
func (pl *partPlan) holders(p int, window bool, admit func(*dataNode) bool) (pruned bool) {
	if window || pl.covering {
		if pl.ring == nil {
			pl.ring = pl.e.ringNodes()
		}
		for _, dn := range pl.ring {
			pl.targets[dn] = append(pl.targets[dn], p)
		}
		return false
	}
	consulted, matched := false, false
	for _, owner := range pl.e.smgr.ReadOwnersOf(p) {
		dn, ok := pl.e.dataNode(owner)
		if !ok || !dn.node.Alive() || !pl.e.smgr.InRing(owner) {
			continue
		}
		consulted = true
		if admit(dn) {
			pl.targets[dn] = append(pl.targets[dn], p)
			matched = true
		}
	}
	return consulted && !matched
}

// nodes lists the planned nodes in node order, each node's partition
// list sorted — so payloads, replies and traces are deterministic.
func (pl *partPlan) nodes() []*dataNode {
	nodes := make([]*dataNode, 0, len(pl.targets))
	for dn, parts := range pl.targets {
		sort.Ints(parts)
		nodes = append(nodes, dn)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].node.ID.Num < nodes[j].node.ID.Num })
	return nodes
}

// scatter runs one routed round: plan fills the attempt's partPlan,
// payload renders a node's request from its sorted partition list, and
// every planned node is called concurrently, replies gathered in node
// order.
//
// Plan → call is not atomic against membership changes: a window opening
// mid-flight can move a partition's postings off the node the plan
// selected before the call arrives. The round is therefore bracketed by
// the membership generation and re-planned when it moved — plan runs
// once per attempt, so it must reset whatever state it accumulates. The
// last attempt plans the covering set and returns whatever it gathered.
// settled reports that the generation held across the returned round;
// callers fill caches only from a settled round.
func (e *Engine) scatter(ctx context.Context, kind string, plan func(*partPlan), payload func(parts []int) []byte) (replies [][]byte, settled bool, err error) {
	for attempt := 0; ; attempt++ {
		gen := e.smgr.MembershipGeneration()
		pl := newPartPlan(e, attempt == scatterRetries)
		plan(pl)
		replies, err = e.callEach(ctx, pl.nodes(), kind, func(dn *dataNode) []byte { return payload(pl.targets[dn]) })
		if err != nil {
			return nil, false, err
		}
		settled = e.smgr.MembershipGeneration() == gen
		if settled || pl.covering {
			return replies, settled, nil
		}
	}
}

// scanPartitions is the paged scan driver: every non-empty partition is
// planned onto its answering owner, each planned node is paged through
// its partition list (scanNode), and every decoded page is handed to
// onPage on the caller's goroutine, in arrival order. At most inFlight
// node scans run at once (0 = all of them); onPage returns false to stop
// early. A partition is scanned by exactly one node and a node's pages
// never repeat an ID, so callers see each document once.
//
// Cancellation, or an early stop, stops scheduling the remaining nodes
// and abandons the in-flight calls. Node scans never dispatched because
// the caller's deadline or cancellation arrived first are counted in
// streamShed (an early stop also leaves nodes undispatched, but the
// context is alive then — that is completion, not shedding).
func (e *Engine) scanPartitions(ctx context.Context, filter expr.Expr, inFlight int, onPage func([]*docmodel.Document) bool) error {
	pl := newPartPlan(e, false)
	for p := 0; p < e.smgr.Partitions(); p++ {
		if e.smgr.PartitionDocCount(p) > 0 {
			pl.answering(p)
		}
	}
	nodes := pl.nodes()
	if inFlight <= 0 {
		inFlight = len(nodes)
	}
	// With pushdown the filter runs inside the storage nodes and only
	// matches cross the interconnect; the E9 ablation ships everything and
	// filters here.
	pushed := filter
	if e.cfg.DisablePushdown {
		pushed = expr.True()
	}
	req := scanReq{Filter: pushed.Encode(), Page: e.scanPageSize()}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	next, running := 0, 0
	defer func() {
		if ctx.Err() != nil && next < len(nodes) {
			e.streamShed.Add(uint64(len(nodes) - next))
		}
	}()
	type partial struct {
		docs []*docmodel.Document
		err  error
		done bool // node finished (err says how)
	}
	// One slot per running node scan: a decoded page can wait here while
	// the node fetches its next one; beyond that the consumer's pace is
	// the backpressure bound.
	replies := make(chan partial, inFlight)
	send := func(pr partial) error {
		select {
		case replies <- pr:
			return nil
		case <-sctx.Done():
			return sctx.Err()
		}
	}
	dispatch := func() {
		for running < inFlight && next < len(nodes) && sctx.Err() == nil {
			dn := nodes[next]
			next++
			running++
			r := req
			r.Parts = pl.targets[dn]
			go func() {
				err := e.scanNode(sctx, dn, r, func(docs []*docmodel.Document) error {
					return send(partial{docs: docs})
				})
				_ = send(partial{err: err, done: true}) // unsent only when the driver is already gone
			}()
		}
	}
	dispatch()
	for running > 0 {
		var pr partial
		select {
		case pr = <-replies:
		case <-ctx.Done():
			return ctx.Err()
		}
		if pr.done {
			running--
			if pr.err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return pr.err
			}
			dispatch()
			continue
		}
		docs := pr.docs
		if e.cfg.DisablePushdown {
			docs = docs[:0]
			for _, d := range pr.docs {
				if filter.Eval(d) {
					docs = append(docs, d)
				}
			}
		}
		if !onPage(docs) {
			break
		}
	}
	return ctx.Err()
}

// scanNode drives one node's paged scan of its partition list to
// completion, handing each page over as it arrives — no reply, and no
// node-side buffer, ever holds more than a page.
func (e *Engine) scanNode(ctx context.Context, dn *dataNode, req scanReq, onPage func([]*docmodel.Document) error) error {
	for {
		raw, err := e.fab.CallCtx(ctx, dn.node.ID, msgScanFiltered, mustJSON(req))
		if err != nil {
			return err
		}
		docs, more, lastID, err := decodeScanPage(raw)
		if err != nil {
			return err
		}
		if err := onPage(docs); err != nil {
			return err
		}
		if !more {
			return nil
		}
		req.AfterID = lastID.String()
	}
}

// scanDocs materializes a scan: the latest version of every matching
// document, in ID order.
func (e *Engine) scanDocs(ctx context.Context, filter expr.Expr) ([]*docmodel.Document, error) {
	var docs []*docmodel.Document
	err := e.scanPartitions(ctx, filter, 0, func(page []*docmodel.Document) bool {
		docs = append(docs, page...)
		return true
	})
	if err != nil {
		return nil, err
	}
	sortDocs(docs)
	return docs, nil
}
