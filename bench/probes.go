package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"impliance/internal/annot"
	"impliance/internal/cache"
	"impliance/internal/docmodel"
	"impliance/internal/exec"
	"impliance/internal/expr"
	"impliance/internal/fabric"
	"impliance/internal/index"
	"impliance/internal/ingest"
	"impliance/internal/plan"
	"impliance/internal/query"
	"impliance/internal/sched"
	"impliance/internal/storage"
	"impliance/internal/storage/compress"
	"impliance/internal/tail"
	"impliance/internal/text"
	"impliance/internal/virt"
	"impliance/internal/workload"
)

// Layer probes. Spans inside the program are a later issue, so a layer's
// cost is measured from outside: for inputs sampled from the run's own
// corpus, the harness performs each layer's share of an operation by
// calling that layer's public functions on stand-alone instances, each
// call in a span under a synthetic probe.<op> parent. A per-layer metric
// is the median child-span duration (or bytes, or a rate derived from it).
//
// The collector is switched off while the probes run and collections are
// made between operations, outside every span: a probe that allocates
// (frame encode allocates about 0.8 MB a call) would otherwise keep the
// collector marking, and every other layer's probe would be timed beside
// it. What the collector costs the real operations shows in go.gc_* and in
// core.glue_ns.*, not in a layer's own number.

const (
	probeOps      = 1000     // sampled operations per cheap probe
	probeStoreDoc = 5000     // documents in the stand-alone store and index: one data node's share
	probeHeavyOps = 10       // repetitions of whole-store probes (scan, aggregate)
	probeGCBytes  = 64 << 20 // collect between operations once this much was allocated
)

// prober runs probe operations and pools child-span measurements by name.
type prober struct {
	tr     *tracer
	dur    map[string]samples
	allocB map[string][]float64
	allocs map[string][]float64
	inB    map[string]int // input bytes seen by per-kB probes

	parent, opID int
	collectedAt  uint64 // allocation counter at the last collection
}

func newProber(tr *tracer) *prober {
	tr.setPhase("probe")
	return &prober{tr: tr, dur: map[string]samples{}, allocB: map[string][]float64{},
		allocs: map[string][]float64{}, inB: map[string]int{}}
}

// op runs body as one synthetic operation: a probe.<name> parent span
// whose children are the steps body performs.
func (p *prober) op(name string, body func()) {
	p.collect()
	p.tr.nextOp++
	p.opID = p.tr.nextOp
	// Reserve the parent's ID before the children take theirs.
	p.parent = p.tr.add(0, p.opID, "probe."+name, time.Since(p.tr.t0).Nanoseconds(), 0, nil)
	body()
	p.tr.spans[p.parent-1].EndNs = time.Since(p.tr.t0).Nanoseconds()
}

// step times one call into a layer as a child span of the current op.
func (p *prober) step(name string, fn func()) {
	metrics.Read(allocSamples)
	a0, b0 := allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	metrics.Read(allocSamples)
	start := t0.Sub(p.tr.t0).Nanoseconds()
	p.tr.add(p.parent, p.opID, name, start, start+int64(d), nil)
	p.dur[name] = append(p.dur[name], int64(d))
	p.allocs[name] = append(p.allocs[name], float64(allocSamples[0].Value.Uint64()-a0))
	p.allocB[name] = append(p.allocB[name], float64(allocSamples[1].Value.Uint64()-b0))
}

// collect runs the collector, between operations, once probeGCBytes have
// been allocated since it last ran.
func (p *prober) collect() {
	metrics.Read(allocSamples)
	if now := allocSamples[1].Value.Uint64(); now-p.collectedAt > probeGCBytes {
		runtime.GC()
		p.collectedAt = now
	}
}

// meanOf averages a per-call series. The runtime publishes allocation
// counts in batches, so a single call's delta is quantised; the mean over
// the sampled calls is not.
func meanOf(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func (p *prober) medianNs(name string) float64 { return quantile(p.dur[name].sorted(), 0.5) }

// nsPerKB is total time over total input for a per-kB probe.
func (p *prober) nsPerKB(name string) float64 {
	var total int64
	for _, d := range p.dur[name] {
		total += d
	}
	return float64(total) / (float64(p.inB[name]) / 1024)
}

// warmHandoff makes a few untimed calls of a probe that hands work to
// another goroutine and waits for it. When the second core has gone idle,
// each hand-off first pays the scheduler's wake-up of a sleeping thread
// (about 6 us on the sandbox VM); the workloads' two busy clients never
// let it go idle, so the timed call should not pay it either.
func warmHandoff(call func()) {
	for i := 0; i < 3; i++ {
		call()
	}
}

// sink keeps results alive so the compiler cannot drop the probed calls.
var sink any

// runProbes measures every layer and returns the probe-derived per-layer
// metrics.
func runProbes(ctx context.Context, outDir string, seed int64, corp *corpus, tr *tracer) (map[string]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := newProber(tr)
	out := map[string]float64{}
	n := min(probeStoreDoc, len(corp.docs))
	ops := min(probeOps, n)

	// The sampled inputs: the first n corpus documents under their real,
	// engine-minted IDs, so partition hashing matches the run's.
	docs := make([]*docmodel.Document, n)
	enc := make([][]byte, n)
	frames := make([][]byte, n)
	var encBytes, frameBytes int
	for i := range docs {
		d := corp.docs[i]
		docs[i] = &docmodel.Document{ID: d.id, Version: 1, MediaType: rowsMedia, Source: rowsSource,
			IngestedAt: time.Unix(1700000000, 0), Root: rowBody(d.k, d.cat, d.val, d.pad)}
		enc[i] = docmodel.EncodeDocument(docs[i])
		f, err := compress.EncodeFrame(compress.Flate, enc[i])
		if err != nil {
			return nil, err
		}
		p.collect()
		frames[i] = f
		encBytes += len(enc[i])
		frameBytes += len(f)
	}
	out["compress.stored_per_raw"] = float64(frameBytes) / float64(encBytes)

	// Stand-alone instances, configured as the engine configures its own.
	dir, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeOpts := func(sub string) storage.Options {
		return storage.Options{Dir: dir + "/" + sub, Backend: storageBackend, Codec: compress.Flate}
	}
	store, err := storage.Open(1, storeOpts("store"))
	if err != nil {
		return nil, err
	}
	storeOpen := true
	defer func() {
		if storeOpen {
			store.Close()
		}
	}()
	putStore, err := storage.Open(2, storeOpts("puts"))
	if err != nil {
		return nil, err
	}
	defer putStore.Close()
	ix := index.NewPartitioned(nil, virt.DefaultPartitions, func(id docmodel.DocID) int {
		return virt.DocPartition(id, virt.DefaultPartitions)
	})
	fab := fabric.New()
	defer fab.Close()
	echo := fab.AddNode(fabric.Data)
	echo.SetHandler(func(_ string, payload []byte) ([]byte, error) { return payload, nil })
	pm := virt.NewPartitionMap(0, 0, 0)
	var ring []fabric.NodeID
	for i := 1; i <= dataNodes; i++ {
		ring = append(ring, fabric.NodeID{Kind: fabric.Data, Num: i})
	}
	pm.SetNodes(ring)
	caches := cache.New(cache.Config{Partitions: virt.DefaultPartitions, PointEntries: 4096, NegativeEntries: 1024, PartialEntries: 4096})
	var admission *sched.Admission // nil: the run's admission is ungated, and this is the call the facade makes
	pool := sched.NewPoolConfig(sched.PoolConfig{Workers: 4})
	defer pool.Close()
	broker := tail.NewBroker(tail.Options{Partitions: virt.DefaultPartitions})
	defer broker.Shutdown()
	sub, err := broker.Subscribe(tail.SubOptions{Class: sched.Background, Policy: tail.PolicyBlock})
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	planner := plan.NewPlanner()
	catalog := query.NewCatalog()
	catalog.Register(query.NewView(rowsViewSQL, expr.SourceIs(rowsSource), map[string]string{"k": "/k", "cat": "/cat", "val": "/val"}))
	registry := annot.NewRegistry(annot.NewDefaultEntityAnnotator(workload.Products), annot.NewSentimentAnnotator())

	// probe.write: what one Update or Ingest makes the layers do.
	for i := 0; i < n; i++ {
		d := docs[i]
		if i >= ops { // fill the rest of the store and index untimed
			if _, err := store.Put(d); err != nil {
				return nil, err
			}
			ix.Add(d)
			p.collect()
			continue
		}
		var putErr error
		p.op("write", func() {
			p.step("docmodel.encode_ns", func() { sink = docmodel.EncodeDocument(d) })
			p.step("compress.encode_frame_ns", func() { sink, _ = compress.EncodeFrame(compress.Flate, enc[i]) })
			p.step("storage.put_ns", func() { _, putErr = putStore.Put(d) })
			p.step("index.add_ns", func() { ix.Add(d) })
			part := virt.DocPartition(d.ID, virt.DefaultPartitions)
			p.step("tail.publish_deliver_ns", func() {
				broker.Publish(part, 0, tail.KindUpdate, d)
				sink, _ = sub.Next(ctx)
			})
			warmHandoff(func() { sink, _ = pool.SubmitWait(sched.Background, func() {}) })
			p.step("sched.submit_run_ns", func() { sink, _ = pool.SubmitWait(sched.Background, func() {}) })
		})
		if putErr != nil {
			return nil, putErr
		}
		if _, err := store.Put(d); err != nil {
			return nil, err
		}
	}
	out["storage.put_allocB"] = meanOf(p.allocB["storage.put_ns"])
	out["compress.encode_allocB"] = meanOf(p.allocB["compress.encode_frame_ns"])

	// probe.reindex: the index half of an update.
	for i := 0; i < ops; i++ {
		d := docs[i]
		p.op("reindex", func() { p.step("index.remove_ns", func() { ix.Remove(d) }) })
		ix.Add(d)
	}

	// probe.get_hit: a Get the point cache answers.
	for i := 0; i < ops; i++ {
		d := docs[i]
		part := pm.PartitionOf(d.ID)
		caches.PutDoc(d.ID, part, d, 0, caches.Epoch(part))
		p.op("get_hit", func() {
			p.step("sched.admit_ns", func() { sink = admission.Admit(sched.Interactive, "") })
			p.step("cache.point_get_ns", func() { sink, _, _ = caches.GetDoc(d.ID, 0, false) })
		})
	}

	// probe.get_miss: a Get routed to the owning store. Walking the store
	// in insertion order with more documents than the hot cache holds makes
	// every first read cold; the second read of the same document is hot.
	payload128 := make([]byte, 128)
	var getErr error
	for i := 0; i < ops; i++ {
		d := docs[i]
		p.op("get_miss", func() {
			p.step("sched.admit_ns", func() { sink = admission.Admit(sched.Interactive, "") })
			p.step("virt.route_ns", func() { sink = pm.ReadOwners(pm.PartitionOf(d.ID)) })
			warmHandoff(func() { sink, getErr = fab.CallCtx(ctx, echo.ID, "echo", payload128) })
			p.step("fabric.call_rtt_ns", func() { sink, getErr = fab.CallCtx(ctx, echo.ID, "echo", payload128) })
			p.step("storage.get_cold_ns", func() { sink, getErr = store.Get(d.ID) })
			p.step("storage.get_hot_ns", func() { sink, getErr = store.Get(d.ID) })
			p.step("compress.decode_frame_ns", func() { sink, _, getErr = compress.DecodeFrame(frames[i]) })
			p.step("docmodel.decode_ns", func() { sink, getErr = docmodel.DecodeDocument(enc[i]) })
			part := pm.PartitionOf(d.ID)
			p.step("cache.point_put_ns", func() { caches.PutDoc(d.ID, part, d, 0, caches.Epoch(part)) })
		})
		if getErr != nil {
			return nil, fmt.Errorf("probe get_miss: %w", getErr)
		}
	}
	out["storage.get_cold_allocB"] = meanOf(p.allocB["storage.get_cold_ns"])
	out["compress.decode_allocB"] = meanOf(p.allocB["compress.decode_frame_ns"])
	out["docmodel.decode_allocs"] = meanOf(p.allocs["docmodel.decode_ns"])

	// probe.search, probe.facet, probe.sql: the index and planning side of
	// the serve mix.
	topkRows := make([]*exec.Row, 0, 1000)
	for _, d := range docs[:min(1000, n)] {
		topkRows = append(topkRows, &exec.Row{Docs: []*docmodel.Document{d}})
	}
	byCat := map[uint8]map[docmodel.DocID]struct{}{}
	for i, d := range docs {
		c := corp.docs[i].cat
		if byCat[c] == nil {
			byCat[c] = map[docmodel.DocID]struct{}{}
		}
		byCat[c][d.ID] = struct{}{}
	}
	spec := expr.GroupSpec{By: []string{"/cat"}, Aggs: []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Path: "/val"}}}
	groups := expr.NewGroupState(spec)
	for _, d := range docs {
		groups.Update(d)
	}
	for i := 0; i < ops; i++ {
		token := catToken(uint8(i % categories))
		p.op("search", func() {
			p.step("index.search_ns", func() { sink = ix.Search(token, 10) })
			p.step("exec.topk_ns", func() {
				sink, _ = exec.Collect(exec.NewTopK(&rowSlice{rows: topkRows}, exec.RowKey{ColIdx: -1, Path: "/val"}, true, 10))
			})
		})
		cat := facetCats[i%len(facetCats)]
		p.op("facet", func() {
			p.step("index.facets_ns", func() { sink = ix.FacetsIn(nil, "/cat", byCat[cat], 10) })
			p.step("expr.partials_codec_ns", func() { sink, _ = expr.DecodePartials(spec, groups.EncodePartials()) })
		})
		k := corp.docs[i].k
		stmt := fmt.Sprintf("SELECT k, cat, val FROM %s WHERE k = %d", rowsViewSQL, k)
		var compiled *query.Compiled
		var sqlErr error
		p.op("sql", func() {
			p.step("query.parse_compile_ns", func() {
				var st *query.Statement
				if st, sqlErr = query.ParseSQL(stmt); sqlErr == nil {
					compiled, sqlErr = st.Compile(catalog)
				}
			})
			if sqlErr != nil {
				return
			}
			p.step("plan.plan_ns", func() { sink = planner.Plan(compiled.Query) })
			p.step("index.value_lookup_ns", func() { sink = ix.ValueLookupIn(nil, "/k", docmodel.Int(k)) })
		})
		if sqlErr != nil {
			return nil, fmt.Errorf("probe sql: %w", sqlErr)
		}
	}

	// probe.scan and probe.agg: one data node's share of a pushed-down
	// scan, and the row-level work inside it.
	payload64k := make([]byte, 64<<10)
	for i := 0; i < probeHeavyOps; i++ {
		lo := int64(i) * (keyMax - scanWidth) / probeHeavyOps
		filter := expr.And(expr.Cmp("/k", expr.OpGe, docmodel.Int(lo)), expr.Cmp("/k", expr.OpLt, docmodel.Int(lo+scanWidth)))
		p.op("scan", func() {
			p.step("plan.plan_ns", func() { sink = planner.Plan(plan.Query{Filter: filter}) })
			p.step("storage.scan", func() {
				matched := 0
				store.ScanFiltered(filter, func(*docmodel.Document) bool { matched++; return true })
				sink = matched
			})
			warmHandoff(func() { sink, _ = fab.CallCtx(ctx, echo.ID, "echo", payload64k) })
			p.step("fabric.call_rtt_64k_ns", func() { sink, _ = fab.CallCtx(ctx, echo.ID, "echo", payload64k) })
			p.step("exec.filter", func() {
				sink, _ = exec.Collect(exec.NewLimit(exec.NewFilter(exec.NewScan(exec.NewSliceCursor(docs), expr.True()), filter, 0), n))
			})
		})
		below := expr.Cmp("/k", expr.OpLt, docmodel.Int(keyMax/2+lo/2))
		p.op("agg", func() {
			p.step("storage.agg", func() { sink = store.AggregateLocal(below, spec) })
		})
	}
	out["storage.scan_docs_per_s"] = float64(n) / (p.medianNs("storage.scan") / 1e9)
	out["storage.agg_docs_per_s"] = float64(n) / (p.medianNs("storage.agg") / 1e9)
	out["exec.filter_rows_per_s"] = float64(n) / (p.medianNs("exec.filter") / 1e9)
	rowFilter := expr.And(expr.Cmp("/k", expr.OpGe, docmodel.Int(keyMax/2)), expr.Cmp("/k", expr.OpLt, docmodel.Int(keyMax/2+scanWidth)))
	for i := 0; i < ops; i++ {
		d := docs[i]
		p.op("scan_row", func() {
			p.step("expr.eval_ns", func() { sink = rowFilter.Eval(d) })
			p.step("expr.group_update_ns", func() { groups.Update(d) })
			p.step("docmodel.header_decode_ns", func() { sink, _ = docmodel.DecodeDocumentHeader(enc[i]) })
		})
	}

	// probe.ingest_doc: the sniffers, the analyzer and the annotators over
	// the ingest mix's documents.
	units, err := genIngestUnits(seed, 2)
	if err != nil {
		return nil, err
	}
	for u := range units {
		for _, it := range units[u].batch {
			d := &docmodel.Document{ID: docmodel.DocID{Origin: 3, Seq: 1}, Version: 1, MediaType: it.MediaType, Source: it.Source, Root: it.Body}
			jsonB, xmlB := docmodel.ToJSON(it.Body), ingest.ToXML("doc", it.Body)
			var prose []string
			d.WalkLeaves(func(pv docmodel.PathVisit) bool {
				if pv.Value.Kind() == docmodel.KindString {
					prose = append(prose, pv.Value.StringVal())
				}
				return true
			})
			p.op("ingest_doc", func() {
				p.step("ingest.auto_ns_per_kb", func() {
					sink, _, _ = ingest.Auto("doc.json", jsonB)
					sink, _, _ = ingest.Auto("doc.xml", xmlB)
				})
				p.inB["ingest.auto_ns_per_kb"] += len(jsonB) + len(xmlB)
				p.step("text.analyze_ns_per_kb", func() {
					for _, s := range prose {
						sink = text.DefaultAnalyzer.Terms(s)
					}
				})
				for _, s := range prose {
					p.inB["text.analyze_ns_per_kb"] += len(s)
				}
				p.step("annot.run_ns_per_doc", func() { sink = registry.Run(d) })
			})
		}
	}
	out["ingest.auto_ns_per_kb"] = p.nsPerKB("ingest.auto_ns_per_kb")
	out["text.analyze_ns_per_kb"] = p.nsPerKB("text.analyze_ns_per_kb")

	// probe.reopen: what a cold restart costs one store.
	_, _, _, rawBytes, _ := store.StatsSnapshot()
	storeOpen = false
	if err := store.Close(); err != nil {
		return nil, err
	}
	disk, err := treeBytes(dir + "/store")
	if err != nil {
		return nil, err
	}
	out["storage.disk_bytes_per_raw_byte"] = float64(disk) / float64(rawBytes)
	for i := 0; i < 3; i++ {
		var reopened *storage.Store
		var openErr error
		p.op("reopen", func() {
			p.step("storage.open", func() { reopened, openErr = storage.Open(1, storeOpts("store")) })
		})
		if openErr != nil {
			return nil, openErr
		}
		if reopened.Len() != n {
			return nil, fmt.Errorf("probe reopen: %d documents, want %d", reopened.Len(), n)
		}
		if err := reopened.Close(); err != nil {
			return nil, err
		}
	}
	out["storage.open_docs_per_s"] = float64(n) / (p.medianNs("storage.open") / 1e9)

	// The harness's own floor: a back-to-back timestamp pair.
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		p.dur["bench.clock_ns"] = append(p.dur["bench.clock_ns"], int64(time.Since(t0)))
	}

	// Every remaining probe metric is the median child-span duration.
	for _, def := range perLayer {
		if s, ok := p.dur[def.Name]; ok && len(s) > 0 {
			if _, done := out[def.Name]; !done {
				out[def.Name] = p.medianNs(def.Name)
			}
		}
	}
	return out, nil
}

// rowSlice is an exec.Operator over prepared rows.
type rowSlice struct {
	rows []*exec.Row
	at   int
}

func (r *rowSlice) Open() error { r.at = 0; return nil }
func (r *rowSlice) Next() (*exec.Row, error) {
	if r.at >= len(r.rows) {
		return nil, nil
	}
	r.at++
	return r.rows[r.at-1], nil
}
func (r *rowSlice) Close() error { return nil }
