package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/fabric"
	"impliance/internal/index"
	"impliance/internal/storage"
	"impliance/internal/text"
)

// Message kinds understood by the node handlers. Data nodes serve the
// storage-local operations that the paper pushes down (§3.1, §3.3); grid
// nodes merge partial aggregates; cluster nodes serve heartbeats and the
// lock service.
const (
	msgPut          = "put"            // data: store a new document/version
	msgReplica      = "replica"        // data: install a replicated version
	msgReplicaBatch = "replica-batch"  // data: install many replicated versions in one call
	msgDelete       = "delete"         // data: append a tombstone version
	msgGet          = "get"            // data: fetch latest version by id
	msgGetBatch     = "get-batch"      // data: fetch many latest versions
	msgScanFiltered = "scan-filtered"  // data: pushed-down filtered scan
	msgAggPartial   = "agg-partial"    // data: pushed-down partial aggregate
	msgSearch       = "search"         // data: ranked keyword search
	msgValueLookup  = "value-lookup"   // data: value index eq/range probe
	msgPathLookup   = "path-lookup"    // data: structural path probe
	msgFacets       = "facets"         // data: facet counts over candidates
	msgMerge        = "merge-partials" // grid: merge partial aggregates
	msgHeartbeat    = "heartbeat"      // cluster: liveness probe
	msgLock         = "lock"           // cluster: acquire named lock
	msgUnlock       = "unlock"         // cluster: release named lock
)

// dataHandler serves a data node's messages against its store and index.
func (e *Engine) dataHandler(dn *dataNode) fabric.Handler {
	return func(kind string, payload []byte) ([]byte, error) {
		switch kind {
		case msgPut:
			doc, err := docmodel.DecodeDocument(payload)
			if err != nil {
				return nil, err
			}
			key, err := dn.store.Put(doc)
			if err != nil {
				return nil, err
			}
			stored, err := dn.store.GetVersion(key)
			if err != nil {
				return nil, err
			}
			return docmodel.EncodeDocument(stored), nil

		case msgReplica:
			doc, err := docmodel.DecodeDocument(payload)
			if err != nil {
				return nil, err
			}
			if err := dn.store.PutReplica(doc); err != nil {
				return nil, err
			}
			// A replica install can change what the partition's answering
			// owner scans (repair, hand-off copies, a lagging replica that
			// became the answerer): void the partition's cached partials.
			e.caches.BumpEpoch(e.smgr.PartitionOf(doc.ID))
			return nil, nil

		case msgReplicaBatch:
			// The ingest path groups replica traffic per target: every
			// version this node owes from a batch arrives in one call
			// instead of one message per document (PutReplica is
			// idempotent, so a retried batch is safe).
			docs, err := decodeDocs(payload)
			if err != nil {
				return nil, err
			}
			for _, d := range docs {
				if err := dn.store.PutReplica(d); err != nil {
					return nil, err
				}
				e.caches.BumpEpoch(e.smgr.PartitionOf(d.ID))
			}
			return nil, nil

		case msgDelete:
			// Deletion is versioned like any other change (§4): the store
			// appends a tombstone version and the reply ships it back so
			// the caller can replicate it to the remaining write holders.
			id, err := docmodel.ParseDocID(string(payload))
			if err != nil {
				return nil, err
			}
			key, err := dn.store.Delete(id)
			if err != nil {
				return nil, err
			}
			tomb, err := dn.store.GetVersion(key)
			if err != nil {
				return nil, err
			}
			return docmodel.EncodeDocument(tomb), nil

		case msgGet:
			id, err := docmodel.ParseDocID(string(payload))
			if err != nil {
				return nil, err
			}
			d, err := dn.store.Get(id)
			if err != nil {
				return nil, err
			}
			return docmodel.EncodeDocument(d), nil

		case msgGetBatch:
			var req getBatchReq
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			ids, err := parseIDs(req.IDs)
			if err != nil {
				return nil, err
			}
			var docs []*docmodel.Document
			for _, id := range ids {
				d, err := dn.store.Get(id)
				if err != nil {
					// A miss is an answer (the caller's negative cache relies
					// on "owner answered but did not return the ID"); a read
					// or corruption failure is not — surfacing it keeps the
					// caller from caching a phantom miss.
					if errors.Is(err, storage.ErrNotFound) {
						continue
					}
					return nil, err
				}
				docs = append(docs, d)
			}
			return encodeDocs(docs), nil

		case msgScanFiltered:
			var req scanReq
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			filter, err := expr.Decode(req.Filter)
			if err != nil {
				return nil, err
			}
			return e.scanPageReply(dn, filter, req)

		case msgAggPartial:
			var req aggReq
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			filter, err := expr.Decode(req.Filter)
			if err != nil {
				return nil, err
			}
			// One partial per requested partition, so the engine can cache
			// each partition's contribution under its own routing
			// generation.
			out := make([]aggPartialWire, 0, len(req.Parts))
			for _, p := range req.Parts {
				g := expr.NewGroupState(req.spec())
				dn.store.ScanSubset(e.smgr.DocsInPartition(p), filter, func(d *docmodel.Document) bool {
					g.Update(d)
					return true
				})
				out = append(out, aggPartialWire{Part: p, Partial: g.EncodePartials()})
			}
			return mustJSON(out), nil

		case msgSearch:
			var req searchReq
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			hits := dn.ix.SearchTerms(req.Terms, req.K)
			return mustJSON(hitsToWire(hits)), nil

		case msgValueLookup:
			var req valueLookupReq
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			var ids []docmodel.DocID
			if req.Range {
				var lo, hi *docmodel.Value
				if req.Lo != nil {
					v, err := docmodel.DecodeValue(req.Lo)
					if err != nil {
						return nil, err
					}
					lo = &v
				}
				if req.Hi != nil {
					v, err := docmodel.DecodeValue(req.Hi)
					if err != nil {
						return nil, err
					}
					hi = &v
				}
				ids = dn.ix.ValueRangeIn(req.Parts, req.Path, lo, hi, req.LoInc, req.HiInc)
			} else {
				v, err := docmodel.DecodeValue(req.Value)
				if err != nil {
					return nil, err
				}
				ids = dn.ix.ValueLookupIn(req.Parts, req.Path, v)
			}
			return mustJSON(idListResp{IDs: idStrings(ids)}), nil

		case msgPathLookup:
			ids := dn.ix.PathLookup(string(payload))
			return mustJSON(idListResp{IDs: idStrings(ids)}), nil

		case msgMerge, msgHeartbeat:
			// Any node kind can execute any operator (paper §3.3); the
			// affinity placer just avoids it. The random-placement ablation
			// exercises this path.
			return e.mergeOrHeartbeat(fabricDataKind, kind, payload)

		case msgFacets:
			var req facetsReq
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			ids, err := parseIDs(req.IDs)
			if err != nil {
				return nil, err
			}
			candidates := make(map[docmodel.DocID]struct{}, len(ids))
			for _, id := range ids {
				candidates[id] = struct{}{}
			}
			// Count each requested partition separately so the engine can
			// cache per-partition partials.
			out := make([]facetPartialWire, 0, len(req.Parts))
			for _, p := range req.Parts {
				fc := dn.ix.FacetsIn([]int{p}, req.Path, candidates, 0)
				ws := make([]facetBucketWire, len(fc))
				for i, b := range fc {
					ws[i] = facetBucketWire{Value: docmodel.EncodeValue(b.Value), Count: b.Count}
				}
				out = append(out, facetPartialWire{Part: p, Buckets: ws})
			}
			return mustJSON(out), nil

		default:
			return nil, fmt.Errorf("core: data node %s: unknown message %q", dn.node.ID, kind)
		}
	}
}

// scanPageReply serves one page of a data node's scan of the partitions
// it was sent: resolve the resume token against the partitions' current
// sorted ID list, scan forward collecting at most req.Page matches, and
// frame the page with the next token. The token names the last
// *examined* document, not the last match, so a page of non-matching
// documents still advances the cursor.
func (e *Engine) scanPageReply(dn *dataNode, filter expr.Expr, req scanReq) ([]byte, error) {
	ids := e.smgr.DocsInPartitions(req.Parts)
	start := 0
	if req.AfterID != "" {
		after, err := docmodel.ParseDocID(req.AfterID)
		if err != nil {
			return nil, err
		}
		// The list may have shifted under the cursor (registrations, the
		// token's own document deleted): resume at the first ID past it.
		start = sort.Search(len(ids), func(i int) bool { return ids[i].Compare(after) > 0 })
	}
	var docs []*docmodel.Document
	more := false
	var lastID docmodel.DocID
	for i := start; i < len(ids); i++ {
		if req.Page > 0 && len(docs) >= req.Page {
			more = true
			break
		}
		dn.store.ScanSubset(ids[i:i+1], filter, func(d *docmodel.Document) bool {
			docs = append(docs, d)
			return true
		})
		lastID = ids[i]
	}
	return encodeScanPage(docs, more, lastID), nil
}

// gridHandler serves grid-node computations (merge phases).
func (e *Engine) gridHandler(n *fabric.Node) fabric.Handler {
	return func(kind string, payload []byte) ([]byte, error) {
		switch kind {
		case msgHeartbeat, msgMerge:
			return e.mergeOrHeartbeat(fabric.Grid, kind, payload)
		default:
			return nil, fmt.Errorf("core: grid node %s: unknown message %q", n.ID, kind)
		}
	}
}

// fabricDataKind avoids importing fabric.Data at every data-handler call
// site.
const fabricDataKind = fabric.Data

// mergeOrHeartbeat implements the node-kind-independent operations,
// attributing merge executions to the hosting node kind.
func (e *Engine) mergeOrHeartbeat(nodeKind fabric.NodeKind, kind string, payload []byte) ([]byte, error) {
	if kind == msgHeartbeat {
		return nil, nil
	}
	e.mergesByKind[nodeKind].Add(1)
	var req mergeReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	spec := aggReq{By: req.By, Aggs: req.Aggs}.spec()
	merged := expr.NewGroupState(spec)
	for _, pb := range req.Partials {
		g, err := expr.DecodePartials(spec, pb)
		if err != nil {
			return nil, err
		}
		merged.Merge(g)
	}
	// Reply with the merged state re-encoded; the caller finalizes.
	return merged.EncodePartials(), nil
}

// clusterHandler serves consistency-group and lock-service messages.
func (e *Engine) clusterHandler(n *fabric.Node) fabric.Handler {
	return func(kind string, payload []byte) ([]byte, error) {
		switch kind {
		case msgHeartbeat, msgMerge:
			return e.mergeOrHeartbeat(fabric.Cluster, kind, payload)
		case msgLock:
			var req lockReq
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			token, ok := e.locks.Acquire(req.Name, req.Owner)
			return mustJSON(lockResp{Token: token, OK: ok}), nil
		case msgUnlock:
			var req lockReq
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			e.locks.Release(req.Name, req.Owner)
			return nil, nil
		default:
			return nil, fmt.Errorf("core: cluster node %s: unknown message %q", n.ID, kind)
		}
	}
}

// indexDoc makes the given version the node's live-indexed version,
// removing the previously indexed one (incremental maintenance, §3.3).
func (dn *dataNode) indexDoc(d *docmodel.Document) {
	dn.mu.Lock()
	old := dn.indexedVer[d.ID]
	dn.indexedVer[d.ID] = d
	dn.mu.Unlock()
	if old != nil {
		dn.ix.Remove(old)
	}
	dn.ix.Add(d)
}

// unindexDoc drops the node's index entry for the document, if any. Used
// when ownership hands off to another node mid-membership-change.
func (dn *dataNode) unindexDoc(id docmodel.DocID) {
	dn.mu.Lock()
	old := dn.indexedVer[id]
	delete(dn.indexedVer, id)
	dn.mu.Unlock()
	if old != nil {
		dn.ix.Remove(old)
	}
}

// purgeIndex drops every index entry the node holds. A node re-joining
// the ring purges first: entries from before its absence point at
// documents whose ownership moved, and the moment the node is a ring
// member again fan-outs would surface them as duplicates.
func (dn *dataNode) purgeIndex() {
	dn.mu.Lock()
	old := dn.indexedVer
	dn.indexedVer = map[docmodel.DocID]*docmodel.Document{}
	dn.mu.Unlock()
	for _, d := range old {
		dn.ix.Remove(d)
	}
}

// searchAllNodes fans a keyword search out to every alive data node and
// merges ranked hits (paper §3.3's example: "a query can be parallelized
// by performing full-text index search on a set of data nodes").
func (e *Engine) searchAllNodes(ctx context.Context, keyword string, k int) ([]index.Hit, error) {
	terms := text.DefaultAnalyzer.Terms(keyword)
	if len(terms) == 0 {
		return nil, nil
	}
	payload := mustJSON(searchReq{Terms: terms, K: k})
	results, err := e.callEach(ctx, e.ringNodes(), msgSearch, func(*dataNode) []byte { return payload })
	if err != nil {
		return nil, err
	}
	var all []index.Hit
	for _, raw := range results {
		var ws []searchHit
		if err := json.Unmarshal(raw, &ws); err != nil {
			return nil, err
		}
		hits, err := hitsFromWire(ws)
		if err != nil {
			return nil, err
		}
		all = append(all, hits...)
	}
	sortHits(all)
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all, nil
}

func sortHits(hits []index.Hit) {
	// Descending score, ascending ID tie-break (same as index package).
	sort.Slice(hits, func(i, j int) bool { return hitLess(hits[i], hits[j]) })
}

func hitLess(a, b index.Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID.Compare(b.ID) < 0
}

// ringNodes lists the alive ring-member data nodes — the fan-out set.
// Nodes recovery removed from the ring are excluded even when revived:
// their stores and indexes hold entries whose ownership moved, and
// fanning them in would double-count facets and surface stale index
// answers.
func (e *Engine) ringNodes() []*dataNode {
	alive := make([]*dataNode, 0, len(e.dataNodes()))
	for _, dn := range e.dataNodes() {
		if dn.node.Alive() && e.smgr.InRing(dn.node.ID) {
			alive = append(alive, dn)
		}
	}
	return alive
}

// callEach calls each node concurrently with its payload and gathers
// raw replies in node order, failing on the first error — the shared
// scatter-gather under the keyword fan-out and the routed scatter. A
// cancelled context stops the scatter before un-dispatched calls are
// sent and abandons the in-flight ones (fabric.CallCtx), so a dead
// caller stops consuming the interconnect.
func (e *Engine) callEach(ctx context.Context, nodes []*dataNode, kind string, payloadFor func(*dataNode) []byte) ([][]byte, error) {
	results := make([][]byte, len(nodes))
	errs := make([]error, len(nodes))
	done := make(chan int, len(nodes))
	launched := 0
	for i, dn := range nodes {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		launched++
		go func(i int, dn *dataNode) {
			results[i], errs[i] = e.fab.CallCtx(ctx, dn.node.ID, kind, payloadFor(dn))
			done <- i
		}(i, dn)
	}
	for n := 0; n < launched; n++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
