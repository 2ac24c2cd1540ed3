package core

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"impliance/internal/baseline/costopt"
	"impliance/internal/docmodel"
	"impliance/internal/exec"
	"impliance/internal/expr"
	"impliance/internal/index"
	"impliance/internal/plan"
	"impliance/internal/query"
	"impliance/internal/sched"
)

// Result is a completed query: result rows plus the plan that produced
// them (EXPLAIN comes for free).
type Result struct {
	Rows []*exec.Row
	Plan *plan.Plan
}

// Run plans and executes a logical query across the appliance.
func (e *Engine) Run(q plan.Query) (*Result, error) {
	return e.RunContext(context.Background(), q)
}

// RunContext plans and executes a logical query under a request
// lifecycle: the context (and any WithDeadline option) bounds the
// call, cancellation abandons outstanding node calls and stops
// scheduling new partition fan-out, and the remaining options thread
// per-call read knobs down to the partition layer. For incremental
// delivery use RunStream instead — RunContext materializes the full
// result set.
func (e *Engine) RunContext(ctx context.Context, q plan.Query, opts ...CallOption) (*Result, error) {
	ctx, cancel, o := resolveOpts(ctx, opts)
	defer cancel()
	// Fast-reject before planning: an overloaded tenant costs one
	// bucket lookup, no plan, no fan-out.
	if err := e.admitOp(sched.Interactive, o.tenant); err != nil {
		return nil, err
	}
	if o.limit > 0 && (q.K == 0 || o.limit < q.K) {
		q.K = o.limit
	}
	if q.Filter.IsTrue() {
		q.Filter = expr.True()
	}
	p := e.planFor(q)
	rows, err := e.execute(ctx, p, q, o)
	if err != nil {
		return nil, err
	}
	return &Result{Rows: rows, Plan: p}, nil
}

// planFor plans with the simple planner, or — for the E7 comparator —
// the cost-based optimizer over whatever statistics were last collected.
func (e *Engine) planFor(q plan.Query) *plan.Plan {
	if e.cfg.UseCostOptimizer {
		e.optMu.Lock()
		opt := e.opt
		e.optMu.Unlock()
		if opt != nil {
			return opt.Plan(q)
		}
	}
	return e.planner.Plan(q)
}

// CollectStatistics runs the full statistics pass the cost-based
// comparator needs (the maintenance burden the simple planner avoids).
// Statistics are a snapshot: they do not track subsequent ingestion.
func (e *Engine) CollectStatistics() {
	var docs []*docmodel.Document
	for _, dn := range e.aliveData() {
		dn.store.Scan(func(d *docmodel.Document) bool {
			docs = append(docs, d)
			return true
		})
	}
	e.optMu.Lock()
	e.opt = costopt.NewOptimizer(costopt.CollectStats(docs))
	e.optMu.Unlock()
}

// execute interprets a plan against the cluster.
func (e *Engine) execute(ctx context.Context, p *plan.Plan, q plan.Query, o callOpts) ([]*exec.Row, error) {
	// Fast path first: pushed-down distributed aggregation (scan access,
	// no join) never materializes the matching documents at all — data
	// nodes compute partials, a grid node merges (§3.1, §3.3).
	if p.GroupBy != nil && p.Join == plan.JoinNone && p.Access.Kind == plan.AccessScan && !e.cfg.DisablePushdown {
		return e.distributedAggregate(ctx, p.Residual, *p.GroupBy)
	}

	outer, err := e.gather(ctx, p, o)
	if err != nil {
		return nil, err
	}
	var op exec.Operator = outer
	if p.Join != plan.JoinNone && p.JoinSpec != nil {
		op, err = e.buildJoin(ctx, p, op, o)
		if err != nil {
			return nil, err
		}
	}
	if p.GroupBy != nil {
		e.attributeWork(sched.TaskAgg)
		op = exec.NewGroupAgg(op, 0, *p.GroupBy)
	}
	if p.OrderBy != nil {
		e.attributeWork(sched.TaskSort)
		key := exec.RowKey{ColIdx: -1, DocIdx: 0, Path: p.OrderBy.Path, ByScore: p.OrderBy.ByScore}
		if p.GroupBy != nil {
			// After aggregation rows have only columns; order by first col.
			key = exec.RowKey{ColIdx: 0}
		}
		if p.K > 0 {
			op = exec.NewTopK(op, key, p.OrderBy.Desc, p.K)
		} else {
			op = exec.NewSort(op, key, p.OrderBy.Desc)
		}
	} else if p.K > 0 {
		op = exec.NewLimit(op, p.K)
	}
	return exec.CollectContext(ctx, op)
}

// gather materializes the access path into an operator over outer rows.
func (e *Engine) gather(ctx context.Context, p *plan.Plan, o callOpts) (exec.Operator, error) {
	switch p.Access.Kind {
	case plan.AccessKeyword:
		k := p.K
		if p.Join != plan.JoinNone || p.GroupBy != nil {
			k = 0 // downstream operators need the full candidate set
		}
		hits, err := e.searchAllNodes(ctx, p.Access.Keyword, k)
		if err != nil {
			return nil, err
		}
		docs, scores, err := e.fetchHits(ctx, hits, o)
		if err != nil {
			return nil, err
		}
		rows := make([]*exec.Row, 0, len(docs))
		for i, d := range docs {
			if !p.Residual.Eval(d) {
				continue
			}
			rows = append(rows, &exec.Row{Docs: []*docmodel.Document{d}, Score: scores[i]})
		}
		return &rowSource{rows: rows}, nil

	case plan.AccessValueEq, plan.AccessValueRange:
		req := valueLookupReq{Path: p.Access.Path}
		if p.Access.Kind == plan.AccessValueEq {
			req.Value = docmodel.EncodeValue(p.Access.Value)
		} else {
			req.Range = true
			req.LoInc, req.HiInc = p.Access.LoInc, p.Access.HiInc
			if p.Access.Lo != nil {
				req.Lo = docmodel.EncodeValue(*p.Access.Lo)
			}
			if p.Access.Hi != nil {
				req.Hi = docmodel.EncodeValue(*p.Access.Hi)
			}
		}
		docs, err := e.lookupAndFetch(ctx, req, o)
		if err != nil {
			return nil, err
		}
		rows := make([]*exec.Row, 0, len(docs))
		for _, d := range docs {
			if p.Residual.Eval(d) {
				rows = append(rows, &exec.Row{Docs: []*docmodel.Document{d}})
			}
		}
		return &rowSource{rows: rows}, nil

	case plan.AccessScan:
		docs, err := e.scanDocs(ctx, p.Residual)
		if err != nil {
			return nil, err
		}
		rows := make([]*exec.Row, 0, len(docs))
		for _, d := range docs {
			rows = append(rows, &exec.Row{Docs: []*docmodel.Document{d}})
		}
		return &rowSource{rows: rows}, nil

	default:
		return nil, fmt.Errorf("core: unsupported access kind %s", p.Access.Kind)
	}
}

// distributedAggregate runs two-phase aggregation: partials on data
// nodes, merge on a grid node, finalize here.
//
// The data-node phase is partition-routed: each partition's partial is
// computed by its answering owner and cached under the partition's
// routing generation and write epoch, so a repeated aggregate recomputes
// only the partitions that changed (wrote or moved) since the last run —
// the rest merge from cache without touching the fabric.
func (e *Engine) distributedAggregate(ctx context.Context, filter expr.Expr, spec expr.GroupSpec) ([]*exec.Row, error) {
	req := specToWire(spec)
	req.Filter = filter.Encode()
	partials, err := e.aggPartials(ctx, req)
	if err != nil {
		return nil, err
	}
	gridID, err := e.placer.Place(sched.TaskAgg)
	if err != nil {
		return nil, err
	}
	merged, err := e.fab.CallCtx(ctx, gridID, msgMerge, mustJSON(mergeReq{
		By: spec.By, Aggs: req.Aggs, Partials: partials,
	}))
	if err != nil {
		return nil, err
	}
	state, err := expr.DecodePartials(spec, merged)
	if err != nil {
		return nil, err
	}
	var rows []*exec.Row
	for _, gr := range state.Rows() {
		row := &exec.Row{}
		row.Cols = append(row.Cols, gr.Key...)
		row.Cols = append(row.Cols, gr.Aggs...)
		rows = append(rows, row)
	}
	return rows, nil
}

// partialFill is what a cache fill of one partition's partial must
// present: the key digest plus the routing generation and write epoch
// captured before the partial was requested.
type partialFill struct{ digest, pgen, epoch uint64 }

// aggPartials gathers one aggregate partial per non-empty partition,
// serving cached ones and asking the answering owners only for the rest
// (scatter.go). Partitions inside an open hand-off window are computed
// (by their pre-change answering owner, whose data is complete) but not
// cached.
func (e *Engine) aggPartials(ctx context.Context, req aggReq) ([][]byte, error) {
	digest := aggDigest(req)
	var (
		out   [][]byte
		fills map[int]partialFill
	)
	replies, settled, err := e.scatter(ctx, msgAggPartial, func(pl *partPlan) {
		out, fills = nil, map[int]partialFill{}
		for p := 0; p < e.smgr.Partitions(); p++ {
			pgen := e.smgr.PartitionGen(p)
			if data, ok := e.caches.GetPartial(p, digest, pgen); ok {
				out = append(out, data)
				continue
			}
			if e.smgr.PartitionDocCount(p) == 0 {
				continue // nothing registered there: no partial to compute
			}
			epoch := e.caches.Epoch(p)
			if pl.answering(p) && !e.smgr.InHandoff(p) {
				fills[p] = partialFill{digest, pgen, epoch}
			}
		}
	}, func(parts []int) []byte {
		r := req
		r.Parts = parts
		return mustJSON(r)
	})
	if err != nil {
		return nil, err
	}
	for _, raw := range replies {
		var pws []aggPartialWire
		if err := json.Unmarshal(raw, &pws); err != nil {
			return nil, err
		}
		for _, pw := range pws {
			out = append(out, pw.Partial)
			if f, ok := fills[pw.Part]; ok && settled {
				e.caches.PutPartial(pw.Part, f.digest, f.pgen, f.epoch, pw.Partial)
			}
		}
	}
	return out, nil
}

// aggDigest keys a partition's aggregate partial by the full query shape:
// filter bytes, group-by paths, and aggregate specs.
func aggDigest(req aggReq) uint64 {
	h := fnv.New64a()
	h.Write(req.Filter)
	for _, by := range req.By {
		h.Write([]byte{0})
		h.Write([]byte(by))
	}
	for _, a := range req.Aggs {
		h.Write([]byte{1, a.Kind})
		h.Write([]byte(a.Path))
	}
	return h.Sum64()
}

// buildJoin attaches the planned join operator.
func (e *Engine) buildJoin(ctx context.Context, p *plan.Plan, outer exec.Operator, o callOpts) (exec.Operator, error) {
	spec := p.JoinSpec
	rf := spec.RightFilter
	if rf.IsTrue() {
		rf = expr.True()
	}
	e.attributeWork(sched.TaskJoin)
	switch p.Join {
	case plan.JoinINL:
		probe := func(v docmodel.Value) []*docmodel.Document {
			docs, err := e.lookupAndFetch(ctx, valueLookupReq{
				Path:  spec.RightPath,
				Value: docmodel.EncodeValue(v),
			}, o)
			if err != nil {
				return nil
			}
			out := docs[:0]
			for _, d := range docs {
				if rf.Eval(d) {
					out = append(out, d)
				}
			}
			return out
		}
		return exec.NewIndexedNLJoin(outer, 0, spec.LeftPath, probe), nil
	case plan.JoinHash:
		inner, err := e.scanDocs(ctx, rf)
		if err != nil {
			return nil, err
		}
		build := exec.NewScan(exec.NewSliceCursor(inner), expr.True())
		return exec.NewHashJoin(build, outer, 0, spec.RightPath, 0, spec.LeftPath), nil
	default:
		return nil, fmt.Errorf("core: unsupported join method %s", p.Join)
	}
}

// lookupAndFetch resolves a value predicate through the partition-routed
// probe plan (valueroute.go): the partition map plus per-partition path
// statistics name the minimal node set whose partitions can contain the
// (path, value), each selected node is probed with its partition filter,
// and partitions inside an open dual-ownership window fall back to an
// all-ring probe. Matching documents are then fetched from their
// partition owners — never from the reporting node, whose copy could lag
// behind the owner's latest version. A call carrying WithStaleReads
// skips the open-window fallback and probes read-side owners only.
func (e *Engine) lookupAndFetch(ctx context.Context, req valueLookupReq, o callOpts) ([]*docmodel.Document, error) {
	e.valueProbes.lookups.Add(1)
	var pruned, windowed int
	results, _, err := e.scatter(ctx, msgValueLookup, func(pl *partPlan) {
		pruned, windowed = e.valueProbePlan(pl, req, o.staleReads)
	}, func(parts []int) []byte {
		r := req
		r.Parts = parts
		return mustJSON(r)
	})
	if err != nil {
		return nil, err
	}
	e.valueProbes.partitionsPruned.Add(uint64(pruned))
	if windowed > 0 {
		e.valueProbes.windowFallbacks.Add(1)
	}
	e.valueProbes.probes.Add(uint64(len(results)))
	seen := map[docmodel.DocID]struct{}{}
	var ids []docmodel.DocID
	for _, raw := range results {
		var resp idListResp
		if err := json.Unmarshal(raw, &resp); err != nil {
			return nil, err
		}
		parsed, err := parseIDs(resp.IDs)
		if err != nil {
			return nil, err
		}
		for _, id := range parsed {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				ids = append(ids, id)
			}
		}
	}
	fetched, err := e.fetchByID(ctx, ids, o)
	if err != nil {
		return nil, err
	}
	docs := make([]*docmodel.Document, 0, len(fetched))
	for _, id := range ids {
		if d, ok := fetched[id]; ok {
			docs = append(docs, d)
		}
	}
	sortDocs(docs)
	return docs, nil
}

// fetchHits retrieves the documents behind search hits. Hits that land on
// *annotation* documents resolve to their base document — the paper's
// point that annotations enrich retrieval of the underlying data ("the
// end user uses an interactive retrieval interface... optionally making
// use of the annotations added by the discovery process", §2.2). A base
// document hit both directly and via its annotations keeps its best
// score; results come back score-descending, deduplicated.
func (e *Engine) fetchHits(ctx context.Context, hits []index.Hit, o callOpts) ([]*docmodel.Document, []float64, error) {
	fetched, err := e.fetchByID(ctx, hitIDs(hits), o)
	if err != nil {
		return nil, nil, err
	}
	// Resolve annotation hits to their bases.
	bestScore := map[docmodel.DocID]float64{}
	var order []docmodel.DocID
	var baseNeeded []docmodel.DocID
	for _, h := range hits {
		d, ok := fetched[h.ID]
		if !ok {
			continue // index slightly ahead of placement: skip ghost hit
		}
		target := h.ID
		if d.IsAnnotation() {
			target = d.Annotates
			if _, have := fetched[target]; !have {
				baseNeeded = append(baseNeeded, target)
			}
		}
		if s, seen := bestScore[target]; !seen {
			bestScore[target] = h.Score
			order = append(order, target)
		} else if h.Score > s {
			bestScore[target] = h.Score
		}
	}
	if len(baseNeeded) > 0 {
		bases, err := e.fetchByID(ctx, baseNeeded, o)
		if err != nil {
			return nil, nil, err
		}
		for id, d := range bases {
			fetched[id] = d
		}
	}
	var docs []*docmodel.Document
	var scores []float64
	for _, id := range order {
		if d, ok := fetched[id]; ok {
			docs = append(docs, d)
			scores = append(scores, bestScore[id])
		}
	}
	// Dedup can disturb score order; restore descending.
	sortDocsByScore(docs, scores)
	return docs, scores, nil
}

func hitIDs(hits []index.Hit) []docmodel.DocID {
	out := make([]docmodel.DocID, len(hits))
	for i, h := range hits {
		out[i] = h.ID
	}
	return out
}

// fetchByID batch-fetches documents from their owning nodes under the
// call's consistency rule. The per-node loop checks the context between
// batches, so a cancelled caller stops scheduling the remaining nodes'
// fetches instead of finishing the gather it no longer wants.
//
// The fetch reads through the point cache: generation-current entries
// (point and negative) are served locally — a negative hit skips the ID
// entirely, matching the batch handler's silent skip of missing documents
// — and only the misses go over the fabric. Like GetContext, fills happen
// only under ReadOwner consistency, and an ID a successful owner batch
// did not return is negative-filled.
func (e *Engine) fetchByID(ctx context.Context, ids []docmodel.DocID, o callOpts) (map[docmodel.DocID]*docmodel.Document, error) {
	out := map[docmodel.DocID]*docmodel.Document{}
	type fill struct {
		part        int
		pgen, epoch uint64
	}
	fills := map[docmodel.DocID]fill{}
	perNode := map[*dataNode][]docmodel.DocID{}
	for _, id := range ids {
		part := e.smgr.PartitionOf(id)
		pgen := e.smgr.PartitionGen(part)
		if d, neg, ok := e.caches.GetDoc(id, pgen, o.staleReads); ok {
			e.smgr.RecordLoad(id) // cached fetch is still demand on the partition
			if !neg {
				out[id] = d
			}
			continue
		}
		epoch := e.caches.Epoch(part)
		dn, err := e.holderFor(id, o.consistency)
		if err != nil {
			continue
		}
		perNode[dn] = append(perNode[dn], id)
		if o.consistency == ReadOwner {
			fills[id] = fill{part: part, pgen: pgen, epoch: epoch}
		}
	}
	for dn, nodeIDs := range perNode {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		raw, err := e.fab.CallCtx(ctx, dn.node.ID, msgGetBatch, mustJSON(getBatchReq{IDs: idStrings(nodeIDs)}))
		if err != nil {
			return nil, err
		}
		batch, err := decodeDocs(raw)
		if err != nil {
			return nil, err
		}
		got := make(map[docmodel.DocID]struct{}, len(batch))
		for _, d := range batch {
			out[d.ID] = d
			got[d.ID] = struct{}{}
			if f, ok := fills[d.ID]; ok {
				e.caches.PutDoc(d.ID, f.part, d, f.pgen, f.epoch)
			}
		}
		for _, id := range nodeIDs {
			if _, ok := got[id]; ok {
				continue
			}
			if f, ok := fills[id]; ok {
				// The owner answered and did not return the ID: remember the
				// miss so repeated ghost hits stop costing round-trips.
				e.caches.PutNegative(id, f.part, f.pgen, f.epoch)
			}
		}
	}
	return out, nil
}

func sortDocsByScore(docs []*docmodel.Document, scores []float64) {
	idx := make([]int, len(docs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return docs[idx[a]].ID.Compare(docs[idx[b]].ID) < 0
	})
	nd := make([]*docmodel.Document, len(docs))
	ns := make([]float64, len(scores))
	for i, j := range idx {
		nd[i], ns[i] = docs[j], scores[j]
	}
	copy(docs, nd)
	copy(scores, ns)
}

// Search is the out-of-the-box ranked keyword interface (paper §3.2.1),
// returning hydrated documents with scores.
func (e *Engine) Search(keyword string, k int) ([]*exec.Row, error) {
	return e.SearchContext(context.Background(), keyword, k)
}

// SearchContext is Search under a request lifecycle (see RunContext).
func (e *Engine) SearchContext(ctx context.Context, keyword string, k int, opts ...CallOption) ([]*exec.Row, error) {
	res, err := e.RunContext(ctx, plan.Query{Keyword: keyword, Filter: expr.True(), K: k,
		OrderBy: &plan.SortSpec{ByScore: true, Desc: true}}, opts...)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// Facets executes one faceted-search interaction step (paper §3.2.1).
func (e *Engine) Facets(req query.FacetRequest) (*query.FacetResult, error) {
	return e.FacetsContext(context.Background(), req)
}

// FacetsContext is Facets under a request lifecycle: cancellation stops
// the per-dimension and per-bucket fan-outs between steps as well as
// abandoning the in-flight ones.
func (e *Engine) FacetsContext(ctx context.Context, req query.FacetRequest, opts ...CallOption) (*query.FacetResult, error) {
	ctx, cancel, o := resolveOpts(ctx, opts)
	defer cancel()
	if err := e.admitOp(sched.Interactive, o.tenant); err != nil {
		return nil, err
	}
	req.Normalize()
	// Candidate set: keyword hits refined by the drill-down predicate, or
	// a pushed-down scan when there is no keyword.
	var hits []index.Hit
	var candidates []docmodel.DocID
	if req.Keyword != "" {
		all, err := e.searchAllNodes(ctx, req.Keyword, 0)
		if err != nil {
			return nil, err
		}
		docs, scores, err := e.fetchHits(ctx, all, o)
		if err != nil {
			return nil, err
		}
		for i, d := range docs {
			if req.Refine.Eval(d) {
				candidates = append(candidates, d.ID)
				hits = append(hits, index.Hit{ID: d.ID, Score: scores[i]})
			}
		}
	} else {
		docs, err := e.scanDocs(ctx, req.Refine)
		if err != nil {
			return nil, err
		}
		for _, d := range docs {
			candidates = append(candidates, d.ID)
			hits = append(hits, index.Hit{ID: d.ID})
		}
	}
	result := &query.FacetResult{Total: len(candidates)}
	if len(hits) > req.K {
		result.Hits = hits[:req.K]
	} else {
		result.Hits = hits
	}

	idStrs := idStrings(candidates)
	for dimIdx, dim := range req.Dimensions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		buckets, err := e.facetDim(ctx, dim, idStrs, req.FacetLimit)
		if err != nil {
			return nil, err
		}
		// OLAP flavor: per-bucket aggregates for the first dimension.
		if dimIdx == 0 && len(req.Aggregates) > 0 {
			for bi := range buckets {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				rows, err := e.distributedAggregate(ctx,
					query.Drill(req.Refine, dim, buckets[bi].Value),
					expr.GroupSpec{Aggs: req.Aggregates},
				)
				if err != nil {
					return nil, err
				}
				if len(rows) == 1 {
					buckets[bi].Aggregates = rows[0].Cols
				}
			}
		}
		result.Dimensions = append(result.Dimensions, query.FacetDimension{Path: dim, Buckets: buckets})
	}
	return result, nil
}

// facetDim merges facet counts for one dimension across the cluster.
//
// The fan-out is partition-routed (scatter.go): candidates are grouped
// by partition, each partition's count is requested from its holders
// only — pruned entirely when no holder's path statistics admit the
// dimension there — and the per-partition result is cached under the
// partition's routing generation and write epoch. A steady-state repeat
// of the same facet interaction is then a local merge of cached
// partials, and a membership change recomputes only the moved partitions
// (their generation bump fences exactly their entries). Partitions
// inside an open hand-off window are counted by every ring member (the
// same rule value probes use — their postings are mid-hand-over) and not
// cached.
func (e *Engine) facetDim(ctx context.Context, path string, candidateIDs []string, limit int) ([]query.FacetBucket, error) {
	parsed, err := parseIDs(candidateIDs)
	if err != nil {
		return nil, err
	}
	byPart := map[int][]string{}
	for i, id := range parsed {
		p := e.smgr.PartitionOf(id)
		byPart[p] = append(byPart[p], candidateIDs[i])
	}
	parts := make([]int, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Ints(parts)

	var (
		cached [][]byte
		fills  map[int]partialFill
	)
	replies, settled, err := e.scatter(ctx, msgFacets, func(pl *partPlan) {
		cached, fills = nil, map[int]partialFill{}
		for _, p := range parts {
			digest := facetDigest(path, byPart[p])
			pgen := e.smgr.PartitionGen(p)
			if data, ok := e.caches.GetPartial(p, digest, pgen); ok {
				cached = append(cached, data)
				continue
			}
			epoch := e.caches.Epoch(p)
			window := e.smgr.InHandoff(p)
			pl.holders(p, window, func(dn *dataNode) bool { return dn.ix.MayContainPath(p, path) })
			if !window {
				fills[p] = partialFill{digest, pgen, epoch}
			}
		}
	}, func(parts []int) []byte {
		var ids []string
		for _, p := range parts {
			ids = append(ids, byPart[p]...)
		}
		return mustJSON(facetsReq{Path: path, IDs: ids, Parts: parts})
	})
	if err != nil {
		return nil, err
	}
	// A partition's counts can arrive from several holders; its partial is
	// their concatenation — mergeFacetWires sums equal values.
	fresh := map[int][]facetBucketWire{}
	for _, raw := range replies {
		var pws []facetPartialWire
		if err := json.Unmarshal(raw, &pws); err != nil {
			return nil, err
		}
		for _, pw := range pws {
			fresh[pw.Part] = append(fresh[pw.Part], pw.Buckets...)
		}
	}
	if settled {
		// A partition no holder admitted fills too, with the empty partial,
		// so the repeat skips the statistics walk.
		for p, f := range fills {
			e.caches.PutPartial(p, f.digest, f.pgen, f.epoch, mustJSON(fresh[p]))
		}
	}
	all := make([][]facetBucketWire, 0, len(parts))
	for _, data := range cached {
		var ws []facetBucketWire
		if err := json.Unmarshal(data, &ws); err != nil {
			return nil, err
		}
		all = append(all, ws)
	}
	for _, ws := range fresh {
		all = append(all, ws)
	}
	return mergeFacetWires(all, limit)
}

// facetDigest keys a partition's facet partial by dimension path and its
// (sorted) candidate IDs.
func facetDigest(path string, ids []string) uint64 {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	h := fnv.New64a()
	h.Write([]byte(path))
	for _, s := range sorted {
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	return h.Sum64()
}

// mergeFacetWires merges per-source bucket lists into the final facet
// result: counts summed by value, sorted count-descending with ascending
// value tie-break, truncated to limit.
func mergeFacetWires(wires [][]facetBucketWire, limit int) ([]query.FacetBucket, error) {
	merged := map[string]*query.FacetBucket{}
	for _, ws := range wires {
		for _, w := range ws {
			v, err := docmodel.DecodeValue(w.Value)
			if err != nil {
				return nil, err
			}
			key := string(w.Value)
			if b, ok := merged[key]; ok {
				b.Count += w.Count
			} else {
				merged[key] = &query.FacetBucket{Value: v, Count: w.Count}
			}
		}
	}
	out := make([]query.FacetBucket, 0, len(merged))
	for _, b := range merged {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value.Compare(out[j].Value) < 0
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// attributeWork records that a unit of the given task kind ran, charging
// the chosen node's work counter (scheduler-visible load accounting).
func (e *Engine) attributeWork(kind sched.TaskKind) {
	if id, err := e.placer.Place(kind); err == nil {
		if n, ok := e.fab.Node(id); ok {
			n.AddWork(1)
		}
	}
}

// attributeKeyedWork charges document-keyed work to the node the placer
// selects for the routing key — with the affinity placer, the data node
// owning the key's partition on the ring.
func (e *Engine) attributeKeyedWork(kind sched.TaskKind, key uint64) {
	kp, ok := e.placer.(sched.KeyedPlacer)
	if !ok {
		e.attributeWork(kind)
		return
	}
	if id, err := kp.PlaceKeyed(kind, key); err == nil {
		if n, ok := e.fab.Node(id); ok {
			n.AddWork(1)
		}
	}
}

// rowSource adapts a materialized row slice to the Operator interface.
type rowSource struct {
	rows []*exec.Row
	pos  int
}

func (r *rowSource) Open() error { return nil }
func (r *rowSource) Next() (*exec.Row, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	row := r.rows[r.pos]
	r.pos++
	return row, nil
}
func (r *rowSource) Close() error { return nil }

func sortDocs(docs []*docmodel.Document) {
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID.Compare(docs[j].ID) < 0 })
}
