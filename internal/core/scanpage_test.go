package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/plan"
	"impliance/internal/storage"
)

// scanReplyHighWater runs one scan query on a fresh engine configured
// with the given page bound and reports the row count plus the largest
// single reply the fabric saw during the query.
func scanReplyHighWater(t *testing.T, pageDocs int) (rows int, maxReply uint64) {
	t.Helper()
	e := testEngine(t, func(c *Config) { c.ScanPageDocs = pageDocs })
	for i := 0; i < 90; i++ {
		item := Item{Body: docmodel.Object(docmodel.F("k", docmodel.Int(int64(i)))), MediaType: "relational/row", Source: "u"}
		if _, err := e.Ingest(item); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	e.fab.ResetNetStats()
	res, err := e.Run(plan.Query{Filter: expr.Cmp("/k", expr.OpLt, docmodel.Int(80))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Access.Kind != plan.AccessScan {
		t.Fatalf("query did not take the scan path: %s", res.Plan)
	}
	return len(res.Rows), e.fab.NetStats().MaxReplyBytes
}

// TestScanPagingBoundsReplySize: paging changes peak per-reply size, not
// results — a tiny page returns the same rows as the unpaged ablation
// while keeping every reply O(page).
func TestScanPagingBoundsReplySize(t *testing.T) {
	pagedRows, pagedMax := scanReplyHighWater(t, 3)
	unpagedRows, unpagedMax := scanReplyHighWater(t, -1)
	if pagedRows != 80 || unpagedRows != 80 {
		t.Fatalf("rows: paged %d, unpaged %d, want 80 each", pagedRows, unpagedRows)
	}
	if pagedMax == 0 || unpagedMax == 0 {
		t.Fatalf("reply high-water marks not recorded: paged %d, unpaged %d", pagedMax, unpagedMax)
	}
	if pagedMax >= unpagedMax {
		t.Errorf("paged max reply %dB not below unpaged %dB", pagedMax, unpagedMax)
	}
}

// TestScanResumeTokenRestart: the resume token is the last examined ID
// and the node resumes at the first ID greater than it, so a token whose
// document was deleted between pages — or whose ID is not in the node's
// list at all — neither re-delivers nor skips a row. Nothing engine-side
// dedups, so the paged drive must deliver exactly the single-reply set.
func TestScanResumeTokenRestart(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.ScanPageDocs = 2 })
	for i := 0; i < 30; i++ {
		item := Item{Body: docmodel.Object(docmodel.F("k", docmodel.Int(int64(i)))), MediaType: "relational/row", Source: "u"}
		if _, err := e.Ingest(item); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	pl := newPartPlan(e, false)
	for p := 0; p < e.smgr.Partitions(); p++ {
		pl.answering(p)
	}
	dn := pl.nodes()[0]
	req := scanReq{Filter: expr.True().Encode(), Parts: pl.targets[dn]}
	page := func(req scanReq) ([]*docmodel.Document, bool, docmodel.DocID) {
		t.Helper()
		raw, err := e.fab.Call(dn.node.ID, msgScanFiltered, mustJSON(req))
		if err != nil {
			t.Fatal(err)
		}
		docs, more, lastID, err := decodeScanPage(raw)
		if err != nil {
			t.Fatal(err)
		}
		return docs, more, lastID
	}

	// Baseline: one unpaged reply names the node's full answering set.
	all, more, _ := page(req)
	if more || len(all) < 4 {
		t.Fatalf("unpaged baseline: %d docs, more=%v", len(all), more)
	}

	// Paged drive with a 2-doc page; the first token's document is
	// deleted before the second page is requested.
	req.Page = 2
	var paged []*docmodel.Document
	for first := true; ; first = false {
		docs, more, lastID := page(req)
		paged = append(paged, docs...)
		if !more {
			break
		}
		if first {
			if _, err := e.Delete(lastID); err != nil {
				t.Fatal(err)
			}
		}
		req.AfterID = lastID.String()
	}
	if len(paged) != len(all) {
		t.Fatalf("paged drive returned %d docs, baseline %d", len(paged), len(all))
	}
	for i := range all {
		if paged[i].ID != all[i].ID {
			t.Fatalf("paged doc %d = %s, baseline %s (repeated or skipped)", i, paged[i].ID, all[i].ID)
		}
	}

	// A token naming an ID that is not in the node's list (it belongs to
	// another node's partitions) resumes at the next greater ID — the rest
	// of the list, not a restart from the top.
	// (The gap is looked for past all[1], the document deleted above.)
	gap := -1
	for i := 1; i+1 < len(all); i++ {
		if all[i].ID.Origin == all[i+1].ID.Origin && all[i+1].ID.Seq > all[i].ID.Seq+1 {
			gap = i
			break
		}
	}
	if gap < 0 {
		t.Fatal("node's IDs are consecutive; scenario degenerate")
	}
	ghost := docmodel.DocID{Origin: all[gap].ID.Origin, Seq: all[gap].ID.Seq + 1}
	rest, _, _ := page(scanReq{Filter: req.Filter, Parts: req.Parts, AfterID: ghost.String()})
	want := all[gap+1:]
	if len(rest) != len(want) {
		t.Fatalf("vanished token returned %d docs, want the %d past it", len(rest), len(want))
	}
	for i := range want {
		if rest[i].ID != want[i].ID {
			t.Fatalf("vanished token doc %d = %s, want %s", i, rest[i].ID, want[i].ID)
		}
	}

	// End to end: the full scan sees every surviving document once.
	res, err := e.Run(plan.Query{Filter: expr.True()})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[docmodel.DocID]bool{}
	for _, r := range res.Rows {
		if seen[r.Docs[0].ID] {
			t.Errorf("scan delivered %s twice", r.Docs[0].ID)
		}
		seen[r.Docs[0].ID] = true
	}
	if len(seen) != 29 {
		t.Errorf("scan after one delete = %d docs, want 29", len(seen))
	}
}

// TestGetBatchDistinguishesMissFromReadError: a genuinely absent ID is
// silently skipped (the caller's negative cache depends on it), while a
// frame read failure surfaces as an error instead of masquerading as a
// miss.
func TestGetBatchDistinguishesMissFromReadError(t *testing.T) {
	dir := t.TempDir()
	e := testEngine(t, func(c *Config) {
		c.Dir = dir
		c.StorageBackend = storage.BackendSegment
		c.HotCacheDocs = 1 // keep reads hitting disk, not the decoded cache
	})
	for i := 0; i < 30; i++ {
		if _, err := e.Ingest(textItem(fmt.Sprintf("doc %d", i), "unit")); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	var dn *dataNode
	var ids []docmodel.DocID
	for _, cand := range e.dataNodes() {
		ids = ids[:0]
		cand.store.EachMeta(func(m storage.DocMeta) bool {
			ids = append(ids, m.ID)
			return true
		})
		if len(ids) >= 2 {
			dn = cand
			break
		}
	}
	if dn == nil {
		t.Fatal("no data node holds two documents; scenario degenerate")
	}

	missing := docmodel.DocID{Origin: 99, Seq: 9999}
	raw, err := e.fab.Call(dn.node.ID, msgGetBatch,
		mustJSON(getBatchReq{IDs: []string{ids[0].String(), missing.String()}}))
	if err != nil {
		t.Fatalf("batch with a missing ID must answer, not error: %v", err)
	}
	docs, err := decodeDocs(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].ID != ids[0] {
		t.Fatalf("batch returned %d docs, want just %s", len(docs), ids[0])
	}

	// Corrupt every frame on disk (same length, so in-flight offsets stay
	// valid) and re-fetch the node's full set: at most one document can
	// still be served from the single-slot decoded cache, so the batch
	// must hit a corrupt frame and surface the failure.
	logs, err := filepath.Glob(filepath.Join(dir, dn.node.ID.String(), "seg-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("segment logs: %v (%d)", err, len(logs))
	}
	for _, lf := range logs {
		st, err := os.Stat(lf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lf, bytes.Repeat([]byte{0xFF}, int(st.Size())), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.fab.Call(dn.node.ID, msgGetBatch, mustJSON(getBatchReq{IDs: idStrings(ids)})); err == nil {
		t.Fatal("corrupt frames answered as if healthy; read errors must not look like misses")
	}
}
