// Command implbench runs the Impliance experiment suite (E1–E26; see
// docs/BENCH.md) and prints the series that EXPERIMENTS.md records. Every
// experiment is keyed to a figure or falsifiable claim of the CIDR 2007
// paper, or to a scaling property of this reproduction's partition layer;
// the paper reports no absolute numbers, so the deliverable is the
// *shape* of each result.
//
// Usage:
//
//	implbench            # run everything
//	implbench E3 E7      # run selected experiments
//	implbench -json E17  # machine-readable per-scenario results on stdout
//
// With -json the human narrative is suppressed and stdout carries one
// JSON array of {id, name, seconds, metrics} records — the format the
// BENCH_*.json trajectories and the CI smoke step consume.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impliance"
	"impliance/internal/annot"
	"impliance/internal/baseline/kvfile"
	"impliance/internal/baseline/relstore"
	"impliance/internal/baseline/searchonly"
	"impliance/internal/clustertest"
	"impliance/internal/docmodel"
	"impliance/internal/exec"
	"impliance/internal/expr"
	"impliance/internal/fabric"
	"impliance/internal/ingest"
	"impliance/internal/sched"
	"impliance/internal/storage"
	"impliance/internal/storage/compress"
	"impliance/internal/workload"
)

// Node-kind shorthands for instrumentation calls.
const (
	fabricData = fabric.Data
	fabricGrid = fabric.Grid
)

type experiment struct {
	id   string
	name string
	// run executes the scenario and returns its machine-readable metrics
	// (nil for narrative-only experiments).
	run func() map[string]float64
}

// plain adapts a narrative-only experiment to the metrics signature.
func plain(f func()) func() map[string]float64 {
	return func() map[string]float64 {
		f()
		return nil
	}
}

// scenarioResult is one -json output record.
type scenarioResult struct {
	ID      string             `json:"id"`
	Name    string             `json:"name"`
	Seconds float64            `json:"seconds"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	log.SetFlags(0)
	experiments := []experiment{
		{"E1", "Figure 1: end-to-end pipeline & annotation uplift", plain(e1)},
		{"E2", "Figure 2: view round trips", plain(e2)},
		{"E3", "Figure 3: scale-out over data nodes", plain(e3)},
		{"E4", "independent grid-node scaling", plain(e4)},
		{"E5", "scheduler affinity vs random placement", plain(e5)},
		{"E6", "Figure 4: system comparison battery", plain(e6)},
		{"E7", "simple planner predictability vs cost-based", plain(e7)},
		{"E8", "top-k join method crossover", plain(e8)},
		{"E9", "pushdown data reduction", plain(e9)},
		{"E10", "async vs sync ingestion", plain(e10)},
		{"E11", "priority interleaving vs FIFO", plain(e11)},
		{"E12", "versioned async updates vs sync replication", plain(e12)},
		{"E13", "data-node failure recovery", plain(e13)},
		{"E14", "connection queries with/without join indexes", plain(e14)},
		{"E15", "compression pushdown", plain(e15)},
		{"E16", "adaptive filter reordering", plain(e16)},
		{"E17", "point-lookup routing over the partition ring", e17},
		{"E18", "elastic membership: node re-join under load", e18},
		{"E19", "partition-routed value-index probes", e19},
		{"E20", "segment store: lazy restart, bounded residency, compaction stall", e20},
		{"E21", "request lifecycle: streaming cursors, cancellation, batched ingest", e21},
		{"E22", "generation-fenced hot-path caches: Zipf point reads, facet partials, re-join", e22},
		{"E23", "storage tier 2: mapped cold scans, segment merge/GC, paged scan replies", e23},
		{"E24", "simulated churn at 128 nodes: zero loss, convergence, seeded replay", e24},
		{"E25", "overload control: open-loop goodput curve, admission vs FIFO ablation", e25},
		{"E26", "live tailing: 16-subscriber fan-out, exactly-once across node re-join", e26},
	}
	jsonOut := false
	want := map[string]bool{}
	for _, a := range os.Args[1:] {
		if a == "-json" || a == "--json" {
			jsonOut = true
			continue
		}
		want[strings.ToUpper(a)] = true
	}
	realStdout := os.Stdout
	if jsonOut {
		// The narrative goes to the bit bucket; stdout carries only the
		// JSON records so callers can pipe it straight into a file.
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout = devnull
		defer func() { os.Stdout = realStdout }()
	}
	var results []scenarioResult
	for _, ex := range experiments {
		if len(want) > 0 && !want[ex.id] {
			continue
		}
		fmt.Printf("\n===== %s: %s =====\n", ex.id, ex.name)
		start := time.Now()
		metrics := ex.run()
		elapsed := time.Since(start)
		fmt.Printf("----- %s done in %v\n", ex.id, elapsed.Round(time.Millisecond))
		results = append(results, scenarioResult{
			ID: ex.id, Name: ex.name, Seconds: elapsed.Seconds(), Metrics: metrics,
		})
	}
	if jsonOut {
		enc := json.NewEncoder(realStdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
	}
}

func mustOpen(mutate ...func(*impliance.Config)) *impliance.Appliance {
	cfg := impliance.Config{DataNodes: 4, GridNodes: 2, ClusterNodes: 1, Workers: 4, Codec: compress.None}
	for _, m := range mutate {
		m(&cfg)
	}
	app, err := impliance.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return app
}

func ingestAll(app *impliance.Appliance, items []workload.Item) {
	for _, it := range items {
		if _, err := app.Ingest(impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source}); err != nil {
			log.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- E1

func e1() {
	run := func(withAnnotators bool) (ingestRate float64, annotations, labelHits int) {
		app := mustOpen(func(c *impliance.Config) {
			if !withAnnotators {
				c.Annotators = []annot.Annotator{}
			}
		})
		defer app.Close()
		g := workload.New(1)
		profiles := g.CustomerProfiles(40)
		items := append(profiles, g.CallTranscripts(400, profiles, 0.9)...)
		items = append(items, g.PurchaseOrders(200, profiles, 0.3)...)
		items = append(items, g.Emails(200, 0.5)...)
		start := time.Now()
		ingestAll(app, items)
		elapsed := time.Since(start)
		app.Drain()
		m := app.MetricsSnapshot()
		// Retrieval uplift: "negative" never appears in transcript text;
		// only the sentiment annotation carries the label, and annotation
		// hits resolve to base documents.
		hits, err := app.Search("negative", 0)
		if err != nil {
			log.Fatal(err)
		}
		return float64(len(items)) / elapsed.Seconds(), m.Annotations, len(hits)
	}
	withRate, withAnn, withHits := run(true)
	withoutRate, withoutAnn, withoutHits := run(false)
	fmt.Printf("%-22s %12s %12s %18s\n", "pipeline", "ingest/s", "annotations", "hits('negative')")
	fmt.Printf("%-22s %12.0f %12d %18d\n", "with annotators", withRate, withAnn, withHits)
	fmt.Printf("%-22s %12.0f %12d %18d\n", "without annotators", withoutRate, withoutAnn, withoutHits)
	fmt.Printf("shape: annotation-driven retrieval answers label queries the raw text cannot (uplift %dx)\n",
		max(withHits, 1)/max(withoutHits, 1))
}

// ---------------------------------------------------------------- E2

func e2() {
	app := mustOpen()
	defer app.Close()
	// Relational rows via CSV.
	csv := "sku,qty,price\nA-1,2,9.99\nB-2,5,3.50\nC-3,1,120.00\n"
	if _, err := app.IngestCSV("inventory", []byte(csv)); err != nil {
		log.Fatal(err)
	}
	// XML claims.
	xmlSrc := []byte(`<claim id="CL-1"><patient>Mary Codd</patient><amount>1200</amount></claim>`)
	body, mt, _ := ingest.Auto("claim.xml", xmlSrc)
	id, _ := app.Ingest(impliance.Item{Body: body, MediaType: mt, Source: "claims"})
	app.Drain()

	app.RegisterView("inventory", impliance.SourceIs("inventory"), map[string]string{
		"sku": "/sku", "qty": "/qty", "price": "/price",
	})
	res, err := app.ExecSQL("SELECT sku, price FROM inventory WHERE qty >= 2 ORDER BY price DESC")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SQL over CSV-born rows: %d rows (want 2), first sku=%s\n",
		len(res.Rows), res.Rows[0][0].StringVal())

	// XML round trip through the native model.
	d, _ := app.Get(id)
	exported := ingest.ToXML("export", d.Root)
	reparsed, err := ingest.XML(exported)
	if err != nil {
		log.Fatal(err)
	}
	rd := &docmodel.Document{Root: reparsed}
	ok := rd.First("/export/claim/patient/#text").StringVal() == "Mary Codd" ||
		rd.First("/export/claim/patient").StringVal() == "Mary Codd"
	fmt.Printf("XML -> native -> XML -> native fidelity: %v\n", ok)

	// Annotation view (Figure 2's derived data as SQL rows).
	sres, err := app.ExecSQL("SELECT base, type, norm FROM entities LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("annotation view rows: %d (entities exposed to SQL)\n", len(sres.Rows))
}

// ---------------------------------------------------------------- E3

// e3 measures scale-out as *critical-path work per query*: with a fixed
// corpus partitioned over N data nodes, the per-query latency in a real
// cluster is governed by the busiest node's local work (the simulator
// host has too few cores for wall-clock speedup to be meaningful, so the
// fabric's work accounting is the measurement — see DESIGN.md §2).
func e3() {
	const corpus = 4000
	fmt.Printf("%-10s %22s %20s %16s\n", "dataNodes", "critical-path docs/q", "interconnect KB/q", "wall ms/q")
	for _, n := range []int{1, 2, 4, 8} {
		app := mustOpen(func(c *impliance.Config) { c.DataNodes = n })
		g := workload.New(3)
		ingestAll(app, g.UniformRows(corpus, 10000, 20, 12))
		app.Drain()
		eng := app.Engine()
		// Snapshot per-node scan counters and net bytes around Q queries.
		before := make([]uint64, n)
		for i, id := range eng.DataNodeIDs() {
			_ = id
			_, _, scanned, _, _ := dataStoreStats(app, i)
			before[i] = scanned
		}
		eng.Fabric().ResetNetStats()
		const reps = 10
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := app.Run(impliance.Query{Filter: impliance.Cmp("/k", impliance.OpLt, impliance.Int(100))}); err != nil {
				log.Fatal(err)
			}
		}
		wall := time.Since(start)
		maxPerNode := uint64(0)
		for i := range before {
			_, _, scanned, _, _ := dataStoreStats(app, i)
			if d := (scanned - before[i]) / reps; d > maxPerNode {
				maxPerNode = d
			}
		}
		kb := float64(eng.Fabric().NetStats().Bytes) / 1024 / reps
		fmt.Printf("%-10d %22d %20.1f %16.2f\n", n, maxPerNode, kb, float64(wall.Microseconds())/1000/reps)
		app.Close()
	}
	fmt.Println("shape: critical-path work per query divides by the node count (linear data parallelism)")
}

// dataStoreStats reaches the i-th data node's store counters.
func dataStoreStats(app *impliance.Appliance, i int) (puts, gets, scanned, raw, stored uint64) {
	return app.Engine().DataStoreStats(i)
}

// throughput runs fn `total` times with `par` workers, returns ops/sec.
func throughput(total, par int, fn func()) float64 {
	start := time.Now()
	ch := make(chan struct{}, total)
	for i := 0; i < total; i++ {
		ch <- struct{}{}
	}
	close(ch)
	done := make(chan struct{})
	for w := 0; w < par; w++ {
		go func() {
			for range ch {
				fn()
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < par; w++ {
		<-done
	}
	return float64(total) / time.Since(start).Seconds()
}

// ---------------------------------------------------------------- E4

// e4 measures independent compute scaling: with data nodes fixed, grid
// nodes absorb the merge phase of distributed aggregation. The metric is
// the busiest grid node's share of the merge operations — the per-node
// queueing that bounds latency in a real cluster.
func e4() {
	fmt.Printf("%-10s %24s %22s\n", "gridNodes", "merges on busiest grid", "grid load imbalance")
	const queries = 48
	for _, n := range []int{1, 2, 4} {
		app := mustOpen(func(c *impliance.Config) { c.DataNodes = 4; c.GridNodes = n })
		g := workload.New(4)
		ingestAll(app, g.UniformRows(2000, 1000, 200, 6))
		app.Drain()
		q := impliance.Query{
			Filter: impliance.True(),
			GroupBy: &impliance.GroupSpec{
				By:   []string{"/cat"},
				Aggs: []impliance.AggSpec{{Kind: impliance.AggCount}, {Kind: impliance.AggSum, Path: "/val"}},
			},
		}
		throughput(queries, 8, func() {
			if _, err := app.Run(q); err != nil {
				log.Fatal(err)
			}
		})
		counts := app.Engine().NodeHandledCounts(fabricGrid)
		maxC, minC := uint64(0), ^uint64(0)
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
			if c < minC {
				minC = c
			}
		}
		imb := "balanced"
		if minC > 0 {
			imb = fmt.Sprintf("%.2fx", float64(maxC)/float64(minC))
		}
		fmt.Printf("%-10d %24d %22s\n", n, maxC, imb)
		app.Close()
	}
	fmt.Printf("shape: the busiest grid node's merge load divides by the grid count (%d queries total)\n", queries)
}

// ---------------------------------------------------------------- E5

// e5 measures what informed placement buys: with affinity, merge
// operators never land on data nodes, whose serial loops are busy with
// storage work; random placement (ablation) puts a large fraction of
// merges in line behind scans.
func e5() {
	const queries = 60
	run := func(random bool) (onData, onGrid, onCluster uint64) {
		app := mustOpen(func(c *impliance.Config) { c.RandomPlacement = random })
		defer app.Close()
		g := workload.New(5)
		ingestAll(app, g.UniformRows(1500, 1000, 50, 8))
		app.Drain()
		agg := impliance.Query{
			Filter: impliance.True(),
			GroupBy: &impliance.GroupSpec{
				By:   []string{"/cat"},
				Aggs: []impliance.AggSpec{{Kind: impliance.AggSum, Path: "/val"}},
			},
		}
		for i := 0; i < queries; i++ {
			if _, err := app.Run(agg); err != nil {
				log.Fatal(err)
			}
		}
		return app.Engine().MergeCountByKind()
	}
	aD, aG, aC := run(false)
	rD, rG, rC := run(true)
	fmt.Printf("%-22s %12s %12s %12s\n", "placement", "data", "grid", "cluster")
	fmt.Printf("%-22s %12d %12d %12d\n", "affinity (paper)", aD, aG, aC)
	fmt.Printf("%-22s %12d %12d %12d\n", "random (ablation)", rD, rG, rC)
	fmt.Printf("shape: affinity places all %d merges on grid nodes; random queues most of them\n", queries)
	fmt.Println("       behind the serial storage loops of data nodes")
}

// ---------------------------------------------------------------- E6

func e6() {
	type cap struct {
		name string
		impl bool
		rel  bool
		srch bool
		file bool
	}
	// Exercise each system; booleans verified by construction/tests.
	caps := []cap{
		{"schema-free ingestion of any format", true, false, true, true},
		{"keyword search over content", true, false, true, false},
		{"typed predicate filters", true, true, false, false},
		{"equality joins", true, true, false, false},
		{"grouped aggregation", true, true, false, false},
		{"facet counts", true, false, true, false},
		{"nested/semi-structured documents", true, false, true, false},
		{"automatic entity annotation", true, false, false, false},
		{"entity resolution across documents", true, false, false, false},
		{"connection (how-related) queries", true, false, false, false},
		{"immutable versioned updates", true, false, false, false},
		{"content+structure in one query", true, false, false, false},
	}
	fmt.Printf("%-40s %-10s %-10s %-12s %-8s\n", "capability", "impliance", "relstore", "searchonly", "kvfile")
	score := [4]int{}
	for _, c := range caps {
		row := [4]bool{c.impl, c.rel, c.srch, c.file}
		marks := [4]string{}
		for i, b := range row {
			if b {
				score[i]++
				marks[i] = "yes"
			} else {
				marks[i] = "-"
			}
		}
		fmt.Printf("%-40s %-10s %-10s %-12s %-8s\n", c.name, marks[0], marks[1], marks[2], marks[3])
	}
	fmt.Printf("%-40s %-10d %-10d %-12d %-8d\n", "TOTAL (query/data model richness)", score[0], score[1], score[2], score[3])

	// TCO proxy: manual steps before the first useful query on a 3-source
	// corpus (rows, text, XML).
	fmt.Println("\nTCO proxy: manual setup steps before first query over 3 heterogeneous sources")
	fmt.Printf("  %-12s %d (zero: stewing-pot ingestion)\n", "impliance", 0)
	fmt.Printf("  %-12s %d (CREATE TABLE x3, schema design x3, CREATE INDEX x2; text/XML unsupported)\n", "relstore", 8)
	fmt.Printf("  %-12s %d (crawl config; no structured modelling possible)\n", "searchonly", 1)
	fmt.Printf("  %-12s %d (mkdir; nothing else possible)\n", "kvfile", 1)

	// Sanity exercise of the baseline implementations (they are real).
	rdb := relstore.NewDB()
	rdb.CreateTable("t", []ingest.Column{{Name: "a", Type: ingest.ColInt}})
	rdb.Insert("t", []any{int64(1)})
	if err := rdb.KeywordSearch("x", 1); err == nil {
		log.Fatal("relstore should not do keyword search")
	}
	se := searchonly.New()
	se.Add(docmodel.Object(docmodel.F("text", docmodel.String("hello"))))
	if err := se.Join(); err == nil {
		log.Fatal("searchonly should not join")
	}
	fs := kvfile.New()
	fs.Put("/x", []byte("content"), time.Now())
	if err := fs.ContentSearch("content"); err == nil {
		log.Fatal("kvfile should not content-search")
	}
	fmt.Println("baseline boundary checks: ok")
}

// ---------------------------------------------------------------- E7

func e7() {
	type cond struct {
		name  string
		setup func() *impliance.Appliance
	}
	mkCorpus := func(app *impliance.Appliance, shifted bool) {
		g := workload.New(7)
		// Base corpus: k uniform in [0, 10000).
		ingestAll(app, g.UniformRows(3000, 10000, 10, 10))
		if shifted {
			// Post-statistics drift: a flood of low-k rows makes "k < 300"
			// unselective even though stale statistics say ~3%.
			ingestAll(app, g.UniformRows(6000, 300, 10, 10))
		}
	}
	queries := []impliance.Query{
		{Filter: impliance.Cmp("/k", impliance.OpLt, impliance.Int(300))},
		{Filter: impliance.Cmp("/k", impliance.OpLt, impliance.Int(100))},
		{Filter: impliance.And(
			impliance.Cmp("/k", impliance.OpGe, impliance.Int(50)),
			impliance.Cmp("/k", impliance.OpLt, impliance.Int(250)))},
		{Filter: impliance.Cmp("/k", impliance.OpGt, impliance.Int(9000))},
		{Filter: impliance.Cmp("/cat", impliance.OpEq, impliance.String("c03"))},
	}
	conds := []cond{
		{"simple planner", func() *impliance.Appliance {
			app := mustOpen()
			mkCorpus(app, true)
			app.Drain()
			return app
		}},
		{"cost-opt fresh stats", func() *impliance.Appliance {
			app := mustOpen(func(c *impliance.Config) { c.UseCostOptimizer = true })
			mkCorpus(app, true)
			app.Drain()
			app.Engine().CollectStatistics() // fresh: after all data
			return app
		}},
		{"cost-opt stale stats", func() *impliance.Appliance {
			app := mustOpen(func(c *impliance.Config) { c.UseCostOptimizer = true })
			g := workload.New(7)
			ingestAll(app, g.UniformRows(3000, 10000, 10, 10))
			app.Drain()
			app.Engine().CollectStatistics() // stats BEFORE the drift
			ingestAll(app, g.UniformRows(6000, 300, 10, 10))
			app.Drain()
			return app
		}},
	}
	// Per-query comparison: latency and the access path each condition
	// chose for the drifted query (q0: "k < 300", selective at stats time,
	// ~60% of documents after the drift).
	fmt.Printf("%-24s %16s %22s %20s\n", "condition", "q0 latency ms", "q0 access path", "battery spread")
	for _, c := range conds {
		app := c.setup()
		// q0 three times for stability; record plan.
		var q0 []float64
		var access string
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			res, err := app.Run(queries[0])
			if err != nil {
				log.Fatal(err)
			}
			access = res.Plan.Access.Kind.String()
			q0 = append(q0, float64(time.Since(start).Microseconds())/1000)
		}
		sort.Float64s(q0)
		// Run-to-run spread of one fixed query: the predictability metric.
		var lat []float64
		for rep := 0; rep < 8; rep++ {
			start := time.Now()
			if _, err := app.Run(queries[1]); err != nil {
				log.Fatal(err)
			}
			lat = append(lat, float64(time.Since(start).Microseconds())/1000)
		}
		app.Close()
		sort.Float64s(lat)
		spread := lat[len(lat)-1] / lat[0]
		fmt.Printf("%-24s %16.2f %22s %19.1fx\n", c.name, q0[len(q0)/2], access, spread)
	}
	fmt.Println("shape: the simple planner never changes its plan; stale statistics flip the access path")
	fmt.Println("note: the in-memory substrate mutes the unclustered-fetch penalty of the wrong plan —")
	fmt.Println("      the reproduced effect is plan instability, not absolute slowdown (EXPERIMENTS.md)")
}

// ---------------------------------------------------------------- E8

func e8() {
	app := mustOpen()
	defer app.Close()
	g := workload.New(8)
	customers := g.CustomerProfiles(500)
	ingestAll(app, customers)
	ingestAll(app, g.PurchaseOrders(4000, customers, 0))
	app.Drain()
	join := &impliance.JoinClause{
		LeftPath:    "/customer_ref",
		RightPath:   "/customer_id",
		RightFilter: impliance.SourceIs("crm-profiles"),
	}
	fmt.Printf("%-8s %14s %14s %10s\n", "k", "INL ms", "hash ms", "winner")
	for _, k := range []int{1, 10, 100, 1000, 4000} {
		// INL: the simple planner's top-k rule.
		qINL := impliance.Query{Filter: impliance.SourceIs("po-feed"), Join: join, K: k}
		start := time.Now()
		if _, err := app.Run(qINL); err != nil {
			log.Fatal(err)
		}
		inl := time.Since(start)
		// Hash: force by running without K (full join), truncating after.
		qHash := impliance.Query{Filter: impliance.SourceIs("po-feed"), Join: join}
		start = time.Now()
		res, err := app.Run(qHash)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Rows) > k {
			res.Rows = res.Rows[:k]
		}
		hash := time.Since(start)
		winner := "INL"
		if hash < inl {
			winner = "hash"
		}
		fmt.Printf("%-8d %14.2f %14.2f %10s\n", k,
			float64(inl.Microseconds())/1000, float64(hash.Microseconds())/1000, winner)
	}
	fmt.Println("shape: INL wins at small k (the paper's top-k rule); hash wins at full results")
}

// ---------------------------------------------------------------- E9

func e9() {
	fmt.Printf("%-14s %16s %16s %10s\n", "selectivity", "pushdown KB", "no-pushdown KB", "ratio")
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5} {
		bytes := func(disable bool) uint64 {
			app := mustOpen(func(c *impliance.Config) { c.DisablePushdown = disable })
			defer app.Close()
			ingestAll(app, workload.New(9).UniformRows(2000, 1000, 10, 30))
			app.Drain()
			app.Engine().Fabric().ResetNetStats()
			cut := int64(sel * 1000)
			if cut < 1 {
				cut = 1
			}
			q := impliance.Query{Filter: impliance.Cmp("/k", impliance.OpLt, impliance.Int(cut))}
			if _, err := app.Run(q); err != nil {
				log.Fatal(err)
			}
			return app.Engine().Fabric().NetStats().Bytes
		}
		with := bytes(false)
		without := bytes(true)
		fmt.Printf("%-14.3f %16.1f %16.1f %10.1fx\n", sel,
			float64(with)/1024, float64(without)/1024, float64(without)/float64(with))
	}
	fmt.Println("shape: pushdown advantage shrinks as selectivity grows (both ship everything at 100%)")
}

// ---------------------------------------------------------------- E10

func e10() {
	const n = 1500
	run := func(sync bool) (ingestSec, drainSec float64) {
		app := mustOpen(func(c *impliance.Config) { c.SyncIndexing = sync })
		defer app.Close()
		g := workload.New(10)
		profiles := g.CustomerProfiles(30)
		items := g.CallTranscripts(n, profiles, 0.8)
		start := time.Now()
		ingestAll(app, items)
		ingestSec = time.Since(start).Seconds()
		start = time.Now()
		app.Drain()
		drainSec = time.Since(start).Seconds()
		return ingestSec, drainSec
	}
	asyncIngest, asyncDrain := run(false)
	syncIngest, syncDrain := run(true)
	fmt.Printf("%-18s %14s %14s %14s\n", "mode", "ingest/s", "ingest wall s", "backlog s")
	fmt.Printf("%-18s %14.0f %14.2f %14.2f\n", "async (paper)", n/asyncIngest, asyncIngest, asyncDrain)
	fmt.Printf("%-18s %14.0f %14.2f %14.2f\n", "sync (ablation)", n/syncIngest, syncIngest, syncDrain)
	fmt.Printf("shape: async ingest is %.1fx faster at accept time; indexing debt drains in background\n",
		syncIngest/asyncIngest)
}

// ---------------------------------------------------------------- E11

func e11() {
	run := func(fifo bool) (mean, p99 time.Duration) {
		pool := sched.NewPool(4, fifo)
		defer pool.Close()
		for i := 0; i < 3000; i++ {
			pool.Submit(sched.Background, func() { time.Sleep(300 * time.Microsecond) })
		}
		var waits []time.Duration
		for i := 0; i < 60; i++ {
			w, err := pool.SubmitWait(sched.Interactive, func() {})
			if err != nil {
				log.Fatal(err)
			}
			waits = append(waits, w)
			time.Sleep(time.Millisecond)
		}
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		var sum time.Duration
		for _, w := range waits {
			sum += w
		}
		return sum / time.Duration(len(waits)), waits[len(waits)*99/100]
	}
	pm, pp := run(false)
	fm, fp := run(true)
	fmt.Printf("%-20s %14s %14s\n", "queueing", "mean wait", "p99 wait")
	fmt.Printf("%-20s %14s %14s\n", "priority (paper)", pm.Round(time.Microsecond), pp.Round(time.Microsecond))
	fmt.Printf("%-20s %14s %14s\n", "FIFO (ablation)", fm.Round(time.Microsecond), fp.Round(time.Microsecond))
	fmt.Printf("shape: interactive work jumps the analysis backlog only under priority scheduling (%.0fx at p99)\n",
		float64(fp)/float64(pp))
}

// ---------------------------------------------------------------- E12

func e12() {
	const docs, updates = 300, 900
	run := func(sync bool) float64 {
		app := mustOpen(func(c *impliance.Config) { c.SyncReplication = sync })
		defer app.Close()
		var ids []impliance.DocID
		for i := 0; i < docs; i++ {
			id, err := app.Ingest(impliance.Item{
				Body:      impliance.Object(impliance.F("v", impliance.Int(0)), impliance.F("pad", impliance.String(strings.Repeat("x", 500)))),
				MediaType: "relational/row", Source: "kv",
			})
			if err != nil {
				log.Fatal(err)
			}
			ids = append(ids, id)
		}
		app.Drain()
		start := time.Now()
		for i := 0; i < updates; i++ {
			id := ids[i%len(ids)]
			if _, err := app.Update(id, impliance.Object(
				impliance.F("v", impliance.Int(int64(i))),
				impliance.F("pad", impliance.String(strings.Repeat("x", 500))),
			)); err != nil {
				log.Fatal(err)
			}
		}
		return float64(updates) / time.Since(start).Seconds()
	}
	async := run(false)
	syncR := run(true)
	fmt.Printf("%-26s %14s\n", "replication", "updates/s")
	fmt.Printf("%-26s %14.0f\n", "async versions (paper)", async)
	fmt.Printf("%-26s %14.0f\n", "sync replicas (ablation)", syncR)
	fmt.Printf("shape: version-append with async replica convergence sustains %.1fx higher update rate\n", async/syncR)
}

// ---------------------------------------------------------------- E13

func e13() {
	app := mustOpen(func(c *impliance.Config) { c.DataNodes = 4 })
	defer app.Close()
	const n = 600
	g := workload.New(13)
	ingestAll(app, g.UniformRows(n, 1000, 10, 10))
	app.Drain()
	baseline, err := app.Run(impliance.Query{Filter: impliance.True()})
	if err != nil {
		log.Fatal(err)
	}
	eng := app.Engine()
	dead := eng.DataNodeIDs()[0]
	eng.Fabric().Kill(dead)
	// Mid-failure: ownership transfers to surviving replicas immediately.
	during, err := app.Run(impliance.Query{Filter: impliance.True()})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	repaired, err := eng.RecoverDataNode(dead)
	if err != nil {
		log.Fatal(err)
	}
	repairTime := time.Since(start)
	after, err := app.Run(impliance.Query{Filter: impliance.True()})
	if err != nil {
		log.Fatal(err)
	}
	under := len(eng.StorageManager().UnderReplicated())
	fmt.Printf("docs visible: before=%d during-failure=%d after-recovery=%d (want %d throughout)\n",
		len(baseline.Rows), len(during.Rows), len(after.Rows), n)
	fmt.Printf("replicas repaired: %d in %v; under-replicated after: %d\n",
		repaired, repairTime.Round(time.Millisecond), under)
	fmt.Println("shape: the during-failure dip covers only the dead node's share; recovery transfers")
	fmt.Println("       ownership and restores the replication factor with zero user-data loss")
}

// ---------------------------------------------------------------- E14

func e14() {
	app := mustOpen()
	defer app.Close()
	g := workload.New(14)
	customers := g.CustomerProfiles(100)
	ingestAll(app, customers)
	ingestAll(app, g.PurchaseOrders(800, customers, 0.3))
	app.Drain()

	// One-time discovery builds the join index.
	start := time.Now()
	rep, err := app.RunDiscovery()
	if err != nil {
		log.Fatal(err)
	}
	discoveryTime := time.Since(start)

	// Sample connected pairs: order -> its customer.
	orders, _ := app.Run(impliance.Query{Filter: impliance.SourceIs("po-feed"), K: 50})
	profiles, _ := app.Run(impliance.Query{Filter: impliance.SourceIs("crm-profiles")})
	profByID := map[string]impliance.DocID{}
	for _, r := range profiles.Rows {
		profByID[r.Docs[0].First("/customer_id").StringVal()] = r.Docs[0].ID
	}
	var pairs [][2]impliance.DocID
	for _, r := range orders.Rows {
		if pid, ok := profByID[r.Docs[0].First("/customer_ref").StringVal()]; ok {
			pairs = append(pairs, [2]impliance.DocID{r.Docs[0].ID, pid})
		}
	}
	start = time.Now()
	found := 0
	for _, p := range pairs {
		if app.Connect(p[0], p[1], 4) != nil {
			found++
		}
	}
	perQuery := time.Since(start) / time.Duration(len(pairs))
	fmt.Printf("discovery (one-time): %v -> %d edges, %d value joins\n",
		discoveryTime.Round(time.Millisecond), rep.JoinEdgesTotal, rep.ValueJoins)
	fmt.Printf("connection queries: %d/%d connected, %v per query via join index\n",
		found, len(pairs), perQuery.Round(time.Microsecond))
	fmt.Printf("without join index: every query pays the full discovery pass (%v, %.0fx slower)\n",
		discoveryTime.Round(time.Millisecond), float64(discoveryTime)/float64(perQuery))
}

// ---------------------------------------------------------------- E15

func e15() {
	run := func(codec compress.Codec, padWords int) (ratio float64, scanMs float64) {
		app := mustOpen(func(c *impliance.Config) { c.Codec = codec })
		defer app.Close()
		ingestAll(app, workload.New(15).UniformRows(1500, 1000, 10, padWords))
		app.Drain()
		m := app.MetricsSnapshot()
		start := time.Now()
		if _, err := app.Run(impliance.Query{Filter: impliance.Cmp("/k", impliance.OpLt, impliance.Int(100))}); err != nil {
			log.Fatal(err)
		}
		return float64(m.RawBytes) / float64(m.StoredBytes), float64(time.Since(start).Microseconds()) / 1000
	}
	fmt.Printf("%-14s %16s %14s\n", "codec", "compression x", "scan ms")
	for _, c := range []compress.Codec{compress.None, compress.FlateFast, compress.Flate} {
		ratio, scan := run(c, 40)
		fmt.Printf("%-14s %16.2f %14.2f\n", c.Name(), ratio, scan)
	}
	fmt.Println("shape: storage-side compression shrinks stored bytes; queries read the in-memory image unaffected")
}

// ---------------------------------------------------------------- E16

func e16() {
	n := 200000
	docs := make([]*docmodel.Document, n)
	for i := 0; i < n; i++ {
		docs[i] = &docmodel.Document{
			ID: docmodel.DocID{Origin: 1, Seq: uint64(i + 1)}, Version: 1,
			Root: docmodel.Object(
				docmodel.F("a", docmodel.Int(int64(i%100))), // a<99: passes 99%
				docmodel.F("b", docmodel.Int(int64(i%100))), // b<1: passes 1%
				docmodel.F("c", docmodel.Int(int64(i%100))), // c<10: passes 10%
			),
		}
	}
	pred := expr.And(
		expr.Cmp("/a", expr.OpLt, docmodel.Int(99)),
		expr.Cmp("/c", expr.OpLt, docmodel.Int(10)),
		expr.Cmp("/b", expr.OpLt, docmodel.Int(1)),
	)
	adaptive := exec.NewAdaptiveFilter(exec.NewScan(exec.NewSliceCursor(docs), expr.True()), pred, 0, 128)
	start := time.Now()
	if _, err := exec.Collect(adaptive); err != nil {
		log.Fatal(err)
	}
	at := time.Since(start)
	static := exec.NewStaticFilter(exec.NewScan(exec.NewSliceCursor(docs), expr.True()), pred, 0)
	start = time.Now()
	if _, err := exec.Collect(static); err != nil {
		log.Fatal(err)
	}
	st := time.Since(start)
	fmt.Printf("%-22s %14s %12s\n", "filter", "pred evals", "ms")
	fmt.Printf("%-22s %14d %12.1f\n", "adaptive (paper)", adaptive.Evals, float64(at.Microseconds())/1000)
	fmt.Printf("%-22s %14d %12.1f\n", "static worst-order", static.Evals, float64(st.Microseconds())/1000)
	fmt.Printf("final adaptive order: %v\n", adaptive.Order())
	fmt.Printf("shape: adaptive reordering saves %.0f%% of predicate evaluations with no statistics\n",
		100*(1-float64(adaptive.Evals)/float64(static.Evals)))
}

// ---------------------------------------------------------------- E17

// e17 measures the consistent-hash partition layer: fabric messages and
// bytes per point Get as the cluster grows. Routing by hash(DocID) →
// partition → owners keeps the per-lookup cost flat — one request to one
// owning node — where a broadcast design would pay one probe per data
// node. Keyword search is shown alongside as the semantically required
// fan-out for contrast.
func e17() map[string]float64 {
	const docs, lookups = 1000, 500
	metrics := map[string]float64{}
	fmt.Printf("%-10s %16s %16s %20s\n", "dataNodes", "get msgs/op", "get bytes/op", "search msgs/op")
	for _, n := range []int{4, 8, 16} {
		app := mustOpen(func(c *impliance.Config) { c.DataNodes = n })
		var ids []impliance.DocID
		g := workload.New(17)
		for _, it := range g.UniformRows(docs, 1000, 10, 6) {
			id, err := app.Ingest(impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source})
			if err != nil {
				log.Fatal(err)
			}
			ids = append(ids, id)
		}
		app.Drain()
		eng := app.Engine()

		eng.Fabric().ResetNetStats()
		for i := 0; i < lookups; i++ {
			if _, err := app.Get(ids[(i*7)%len(ids)]); err != nil {
				log.Fatal(err)
			}
		}
		getNet := eng.Fabric().NetStats()

		eng.Fabric().ResetNetStats()
		const searches = 20
		for i := 0; i < searches; i++ {
			if _, err := app.Search("c01", 10); err != nil {
				log.Fatal(err)
			}
		}
		searchNet := eng.Fabric().NetStats()

		fmt.Printf("%-10d %16.1f %16.1f %20.1f\n", n,
			float64(getNet.Messages)/lookups,
			float64(getNet.Bytes)/lookups,
			float64(searchNet.Messages)/searches)
		metrics[fmt.Sprintf("get_msgs_per_op_%dn", n)] = float64(getNet.Messages) / lookups
		metrics[fmt.Sprintf("search_msgs_per_op_%dn", n)] = float64(searchNet.Messages) / searches
		app.Close()
	}
	fmt.Println("shape: point lookups cost O(1) messages regardless of cluster size (routed, not broadcast);")
	fmt.Println("       keyword search still probes every node's index — fan-out only where semantics demand it")
	return metrics
}

// ---------------------------------------------------------------- E18

// e18 measures elastic ring membership: a data node is killed and
// recovered off the ring mid-workload, then revived and re-joined via
// the heartbeat while point lookups keep running. The deliverables are
// the data-movement bill of the join (documents copied vs corpus size —
// consistent hashing moves only the new node's share) and point-op
// availability through the dual-ownership window (zero Get misses: reads
// route to old owners until each partition's catch-up watermark closes).
func e18() map[string]float64 {
	const docs, outageDocs = 800, 200
	app := mustOpen(func(c *impliance.Config) { c.DataNodes = 5 })
	defer app.Close()
	g := workload.New(18)
	var ids []impliance.DocID
	for _, it := range g.UniformRows(docs, 1000, 10, 6) {
		id, err := app.Ingest(impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source})
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
	}
	app.Drain()
	eng := app.Engine()

	// Outage: the node dies, the heartbeat removes it from the ring, and
	// the workload keeps writing while it is gone.
	dead := eng.DataNodeIDs()[1]
	eng.Fabric().Kill(dead)
	eng.HeartbeatTick()
	for _, it := range g.UniformRows(outageDocs, 1000, 10, 6) {
		id, err := app.Ingest(impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source})
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
	}
	app.Drain()

	// Re-join: revive and let the heartbeat promote the node back onto
	// the ring; catch-up runs in the background while Gets continue.
	eng.Fabric().Revive(dead)
	eng.HeartbeatTick()
	sm := eng.StorageManager()
	windows := sm.HandoffPending()
	gets, misses := 0, 0
	for round := 0; sm.HandoffPending() > 0 && round < 200; round++ {
		for i := 0; i < 25; i++ {
			if _, err := app.Get(ids[(gets*13)%len(ids)]); err != nil {
				misses++
			}
			gets++
		}
	}
	app.Drain()
	// Post-join: every document reachable, the node primary again.
	finalMisses := 0
	rejoinedPrimaries := 0
	for _, id := range ids {
		if _, err := app.Get(id); err != nil {
			finalMisses++
		}
		if h := sm.Holders(id); len(h) > 0 && h[0] == dead {
			rejoinedPrimaries++
		}
	}
	moved := sm.Repaired // replicas created by recovery + join catch-up
	fmt.Printf("corpus %d docs over 5 nodes; node %s killed, recovered, revived, re-joined\n", len(ids), dead)
	fmt.Printf("hand-off windows opened: %d; gets during window: %d, misses: %d\n", windows, gets, misses)
	fmt.Printf("replicas moved (recovery+join): %d; re-joined node primary for %d/%d docs; final misses: %d\n",
		moved, rejoinedPrimaries, len(ids), finalMisses)
	fmt.Println("shape: membership is elastic — the ring grows back with background data movement only for")
	fmt.Println("       the joining node's share, and the dual-ownership window keeps point ops at 100%")
	return map[string]float64{
		"corpus_docs":         float64(len(ids)),
		"handoff_windows":     float64(windows),
		"gets_during_window":  float64(gets),
		"get_misses":          float64(misses),
		"final_get_misses":    float64(finalMisses),
		"replicas_moved":      float64(moved),
		"rejoined_primaries":  float64(rejoinedPrimaries),
		"under_replicated":    float64(len(sm.UnderReplicated())),
		"pending_after_drain": float64(sm.HandoffPending()),
	}
}

// ---------------------------------------------------------------- E19

// e19 measures partition-routed value-index probes: fabric messages per
// value-equality lookup as the cluster grows. The corpus is deliberately
// heterogeneous — many sources, each with its own field — so a
// predicate's path has postings in only the handful of partitions
// holding that source's documents. The router prunes by per-partition
// path statistics, so probe fan-out follows the data (≈ docs-per-source
// partitions), not the cluster size; a broadcast would pay one
// value-index probe per data node (2N messages plus the fetch).
func e19() map[string]float64 {
	const sources, docsPerSource, lookups = 200, 5, 120
	metrics := map[string]float64{}
	mismatches := 0.0
	fmt.Printf("%-10s %22s %18s\n", "dataNodes", "routed msgs/lookup", "pruned parts/op")
	for _, n := range []int{4, 8, 16} {
		app := mustOpen(func(c *impliance.Config) { c.DataNodes = n })
		for s := 0; s < sources; s++ {
			for i := 0; i < docsPerSource; i++ {
				if _, err := app.Ingest(impliance.Item{
					Body: impliance.Object(
						impliance.F(fmt.Sprintf("f%03d", s), impliance.Int(int64(i))),
						impliance.F("note", impliance.String(fmt.Sprintf("source %03d record %d", s, i))),
					),
					MediaType: "relational/row",
					Source:    fmt.Sprintf("feed-%03d", s),
				}); err != nil {
					log.Fatal(err)
				}
			}
		}
		app.Drain()
		eng := app.Engine()
		eng.Fabric().ResetNetStats()
		_, _, prunedBefore, _ := eng.ValueProbeStats()
		for i := 0; i < lookups; i++ {
			path := fmt.Sprintf("/f%03d", (i*37)%sources)
			res, err := app.Run(impliance.Query{
				Filter: impliance.Cmp(path, impliance.OpEq, impliance.Int(int64(i%docsPerSource))),
			})
			if err != nil {
				log.Fatal(err)
			}
			// Every (source, record) pair is unique: a correct lookup
			// returns exactly one document.
			if len(res.Rows) != 1 {
				mismatches++
			}
		}
		msgsPer := float64(eng.Fabric().NetStats().Messages) / lookups
		_, _, pruned, _ := eng.ValueProbeStats()
		app.Close()
		fmt.Printf("%-10d %22.1f %18.1f\n", n, msgsPer, float64(pruned-prunedBefore)/lookups)
		metrics[fmt.Sprintf("routed_msgs_per_lookup_%dn", n)] = msgsPer
	}
	metrics["result_mismatches"] = mismatches
	fmt.Println("shape: routed probes follow the predicate's partitions (~flat in cluster size),")
	fmt.Println("       below the one-probe-per-node cost a broadcast pays (N probes)")
	return metrics
}

// ---------------------------------------------------------------- E20

// e20 measures the segment store at the store layer on a 10k-doc
// corpus: ingest throughput, restart/replay wall time, and — the
// scalability claim — how many decoded documents a re-opened store keeps
// resident. The store replays sealed-segment frame indexes and decodes
// lazily, so a fresh re-open holds zero decoded documents and the hot
// cache bounds residency under reads. Every sampled point Get is checked
// against the value it was written with (zero mismatches required), and
// one compaction pass reports total wall time vs writer stall (one
// commit per sealed segment).
func e20() map[string]float64 {
	const corpus = 10000
	const samples = 1000
	metrics := map[string]float64{"corpus_docs": corpus}
	dir, err := os.MkdirTemp("", "implbench-e20-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := storage.Options{Dir: dir, Codec: compress.FlateFast}
	st, err := storage.Open(1, opts)
	if err != nil {
		log.Fatal(err)
	}
	var keys []docmodel.VersionKey
	start := time.Now()
	for i := 0; i < corpus; i++ {
		k, err := st.Put(&docmodel.Document{
			MediaType: "relational/row", Source: "bench",
			Root: docmodel.Object(
				docmodel.F("i", docmodel.Int(int64(i))),
				docmodel.F("pad", docmodel.String(strings.Repeat("segment backend corpus ", 6))),
			),
		})
		if err != nil {
			log.Fatal(err)
		}
		keys = append(keys, k)
	}
	ingest := time.Since(start)
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	start = time.Now()
	st2, err := storage.Open(1, opts)
	if err != nil {
		log.Fatal(err)
	}
	replay := time.Since(start)
	residentReopen := st2.ResidentDecoded()

	mismatches := 0.0
	for i := 0; i < samples; i++ {
		idx := (i * 9973) % corpus
		d, err := st2.Get(keys[idx].Doc)
		if err != nil || d.First("/i").IntVal() != int64(idx) {
			mismatches++
		}
	}
	residentReads := st2.ResidentDecoded()

	if err := st2.Compact(); err != nil {
		log.Fatal(err)
	}
	compactTotal, compactStall := st2.CompactStats()
	if err := st2.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%14s %14s %18s %18s %14s %12s\n",
		"ingest docs/s", "replay ms", "resident@reopen", "resident@reads", "compact ms", "stall ms")
	fmt.Printf("%14.0f %14.1f %18d %18d %14.1f %12.2f\n",
		corpus/ingest.Seconds(), float64(replay.Microseconds())/1000,
		residentReopen, residentReads,
		float64(compactTotal.Microseconds())/1000, float64(compactStall.Microseconds())/1000)
	metrics["ingest_docs_per_sec_segment"] = corpus / ingest.Seconds()
	metrics["replay_ms_segment"] = float64(replay.Microseconds()) / 1000
	metrics["resident_after_reopen_segment"] = float64(residentReopen)
	metrics["resident_after_reads_segment"] = float64(residentReads)
	metrics["compact_ms_segment"] = float64(compactTotal.Microseconds()) / 1000
	metrics["compact_stall_ms_segment"] = float64(compactStall.Microseconds()) / 1000
	metrics["get_mismatches"] = mismatches
	fmt.Printf("point-Get check: %d samples, %.0f mismatches against the written values\n", samples, mismatches)
	fmt.Println("shape: the segment store re-opens by reading frame indexes — resident decoded docs start at 0")
	fmt.Println("       and stay bounded by the hot cache; compaction stalls writers only for the commit")
	fmt.Println("       window, not the rewrite")
	return metrics
}

// ---------------------------------------------------------------- E21

// e21 measures the context-first request lifecycle on a 10k-doc corpus
// over 8 data nodes:
//
//   - time-to-first-row: RunStream delivers row one after the first
//     node's partial arrives; Run waits for the full gather. The ratio
//     is the latency a streaming consumer stops paying.
//   - cancelled-query cost: a cursor closed after one row stops
//     scheduling the remaining ring scans (bounded in-flight window),
//     so a cancelled query's fabric messages undercut a full one's.
//   - ingest replica batching: IngestBatch coalesces each target
//     node's replicas into one wire call; the per-document loop pays
//     one replica message per (doc, target).
func e21() map[string]float64 {
	const corpus, unbatched = 10000, 2000
	app := mustOpen(func(c *impliance.Config) {
		c.DataNodes = 8
		c.Annotators = []annot.Annotator{} // measure the raw request path
	})
	defer app.Close()
	ctx := context.Background()
	eng := app.Engine()
	metrics := map[string]float64{"corpus_docs": corpus + unbatched}
	g := workload.New(21)

	// (a) Batched ingest: replicas grouped per target node.
	items := make([]impliance.Item, 0, corpus)
	for _, it := range g.UniformRows(corpus, 1000, 20, 8) {
		items = append(items, impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source})
	}
	eng.Fabric().ResetNetStats()
	if _, err := app.IngestBatchContext(ctx, items); err != nil {
		log.Fatal(err)
	}
	app.Drain()
	batchedPerDoc := float64(eng.Fabric().NetStats().Messages) / corpus

	// (b) Unbatched comparator: the per-document path on the same box.
	eng.Fabric().ResetNetStats()
	for _, it := range g.UniformRows(unbatched, 1000, 20, 8) {
		if _, err := app.IngestContext(ctx, impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source}); err != nil {
			log.Fatal(err)
		}
	}
	app.Drain()
	unbatchedPerDoc := float64(eng.Fabric().NetStats().Messages) / unbatched

	// (c) Time-to-first-row: full materialization vs streaming cursor.
	q := impliance.Query{Filter: impliance.True()}
	start := time.Now()
	res, err := app.RunContext(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fullMs := float64(time.Since(start).Microseconds()) / 1000
	rowsFull := len(res.Rows)

	start = time.Now()
	cur, err := app.RunStream(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	if !cur.Next() {
		log.Fatalf("stream yielded no rows: %v", cur.Err())
	}
	ttfrMs := float64(time.Since(start).Microseconds()) / 1000
	rowsStream := 1
	for cur.Next() {
		rowsStream++
	}
	if err := cur.Close(); err != nil {
		log.Fatal(err)
	}
	streamTotalMs := float64(time.Since(start).Microseconds()) / 1000

	// (d) Cancelled-query cost: one row, then Close.
	eng.Fabric().ResetNetStats()
	if _, err := app.RunContext(ctx, q); err != nil {
		log.Fatal(err)
	}
	fullMsgs := float64(eng.Fabric().NetStats().Messages)
	eng.Fabric().ResetNetStats()
	cur, err = app.RunStream(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	if !cur.Next() {
		log.Fatalf("stream yielded no rows: %v", cur.Err())
	}
	if err := cur.Close(); err != nil {
		log.Fatal(err)
	}
	cancelledNet := eng.Fabric().NetStats()

	fmt.Printf("%-34s %14s %14s\n", "ingest path (8 nodes)", "msgs/doc", "")
	fmt.Printf("%-34s %14.1f\n", "batched replicas (IngestBatch)", batchedPerDoc)
	fmt.Printf("%-34s %14.1f\n", "per-doc replicas (Ingest loop)", unbatchedPerDoc)
	fmt.Printf("%-34s %14s %14s\n", "scan of full corpus", "ms", "rows")
	fmt.Printf("%-34s %14.1f %14d\n", "materialized (Run)", fullMs, rowsFull)
	fmt.Printf("%-34s %14.1f %14d\n", "stream: first row", ttfrMs, 1)
	fmt.Printf("%-34s %14.1f %14d\n", "stream: all rows", streamTotalMs, rowsStream)
	fmt.Printf("cancelled after first row: %.0f msgs (full query %.0f), %d calls abandoned\n",
		float64(cancelledNet.Messages), fullMsgs, cancelledNet.Abandons)
	fmt.Println("shape: the cursor's first row arrives with the first partition partial — far ahead of the")
	fmt.Println("       full gather — and closing it stops the remaining fan-out; batching collapses the")
	fmt.Println("       ingest path's replica traffic from one message per (doc, target) to one per target")

	metrics["ingest_msgs_per_doc_batched"] = batchedPerDoc
	metrics["ingest_msgs_per_doc_unbatched"] = unbatchedPerDoc
	metrics["full_materialize_ms"] = fullMs
	metrics["ttfr_stream_ms"] = ttfrMs
	metrics["stream_total_ms"] = streamTotalMs
	metrics["rows_full"] = float64(rowsFull)
	metrics["rows_stream"] = float64(rowsStream)
	metrics["stream_row_mismatch"] = float64(rowsFull - rowsStream)
	metrics["msgs_full_query"] = fullMsgs
	metrics["msgs_cancelled_query"] = float64(cancelledNet.Messages)
	metrics["cancelled_abandons"] = float64(cancelledNet.Abandons)
	return metrics
}

// ---------------------------------------------------------------- E22

// e22 measures the generation-fenced hot-path caches at 8 data nodes.
// A Zipfian (s=1.5) point-read stream runs once cold to warm the hot
// set, then again measured — first with the caches on, then with the
// all-caches-disabled ablation under the identical protocol — reporting
// messages per Get, p99 latency, and point-cache hit rate. A repeated
// facet interaction measures the per-partition partial cache the same
// way. Finally a node is killed, recovered, revived, and re-joined
// mid-workload while reads of just-updated documents continue: the
// partition-generation fence must yield zero stale reads across the
// dual-ownership windows.
func e22() map[string]float64 {
	const corpus, reads, facetReps = 4000, 6000, 25
	type modeRes struct {
		getMsgs, p99, hitRate, facetMsgs float64
	}
	var res [2]modeRes
	var cachedApp *impliance.Appliance
	var cachedIDs []impliance.DocID
	fmt.Printf("%-10s %13s %12s %10s %15s\n",
		"mode", "get msgs/op", "get p99 ms", "hit rate", "facet msgs/op")
	for mode := 0; mode < 2; mode++ {
		disabled := mode == 1
		app := mustOpen(func(c *impliance.Config) {
			c.DataNodes = 8
			// Size the point cache above the distinct-key count so the
			// measured pass exercises steady state, not shard evictions.
			c.PointCacheEntries = 16384
			c.DisablePointCache = disabled
			c.DisableNegativeCache = disabled
			c.DisablePartialCache = disabled
		})
		g := workload.New(22)
		var ids []impliance.DocID
		for _, it := range g.UniformRows(corpus, 1000, 10, 6) {
			id, err := app.Ingest(impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source})
			if err != nil {
				log.Fatal(err)
			}
			ids = append(ids, id)
		}
		app.Drain()
		eng := app.Engine()

		keys := g.Zipf(reads, corpus, 1.5)
		// Warm pass (identical in both modes): first touches fill the
		// cache, or — in the ablation — just repeat the round trips.
		for _, k := range keys {
			if _, err := app.Get(ids[k]); err != nil {
				log.Fatal(err)
			}
		}
		before := eng.CacheStats()
		eng.Fabric().ResetNetStats()
		lat := make([]float64, 0, reads)
		for _, k := range keys {
			start := time.Now()
			if _, err := app.Get(ids[k]); err != nil {
				log.Fatal(err)
			}
			lat = append(lat, float64(time.Since(start).Microseconds())/1000)
		}
		getMsgs := float64(eng.Fabric().NetStats().Messages) / reads
		sort.Float64s(lat)
		after := eng.CacheStats()
		hits := after.PointHits - before.PointHits
		misses := after.PointMisses - before.PointMisses
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}

		// Facet interaction: one cold pass fills the per-partition
		// partials, then the repeats measure the steady state.
		freq := impliance.FacetRequest{Keyword: "c03", Dimensions: []string{"/cat"}}
		if _, err := app.Facets(freq); err != nil {
			log.Fatal(err)
		}
		eng.Fabric().ResetNetStats()
		for i := 0; i < facetReps; i++ {
			if _, err := app.Facets(freq); err != nil {
				log.Fatal(err)
			}
		}
		facetMsgs := float64(eng.Fabric().NetStats().Messages) / facetReps

		res[mode] = modeRes{getMsgs: getMsgs, p99: lat[len(lat)*99/100], hitRate: hitRate, facetMsgs: facetMsgs}
		name := "cached"
		if disabled {
			name = "uncached"
		}
		fmt.Printf("%-10s %13.2f %12.3f %10.2f %15.1f\n",
			name, getMsgs, res[mode].p99, hitRate, facetMsgs)
		if disabled {
			app.Close()
		} else {
			cachedApp, cachedIDs = app, ids
		}
	}

	// Re-join leg (cached appliance): update every 5th document, cache
	// the new versions, then kill / recover / revive / re-join a node
	// while reads of the updated set continue. The generation fence must
	// keep every Get at version 2 — a cache may go cold across a moved
	// partition, never stale.
	app, ids := cachedApp, cachedIDs
	defer app.Close()
	eng := app.Engine()
	var hot []impliance.DocID
	for i := 0; i < len(ids); i += 5 {
		hot = append(hot, ids[i])
	}
	for _, id := range hot {
		if _, err := app.Update(id, impliance.Object(impliance.F("rev", impliance.Int(2)))); err != nil {
			log.Fatal(err)
		}
	}
	app.Drain()
	for _, id := range hot {
		if _, err := app.Get(id); err != nil {
			log.Fatal(err)
		}
	}
	dead := eng.DataNodeIDs()[1]
	eng.Fabric().Kill(dead)
	eng.HeartbeatTick()
	app.Drain()
	eng.Fabric().Revive(dead)
	eng.HeartbeatTick()
	sm := eng.StorageManager()
	windows := sm.HandoffPending()
	staleReads, windowGets := 0, 0
	for round := 0; round == 0 || (sm.HandoffPending() > 0 && round < 200); round++ {
		for _, id := range hot {
			d, err := app.Get(id)
			if err != nil {
				staleReads++ // a miss during the window is as bad as stale
				continue
			}
			windowGets++
			if d.Version != 2 {
				staleReads++
			}
		}
	}
	app.Drain()
	for _, id := range hot {
		d, err := app.Get(id)
		if err != nil || d.Version != 2 {
			staleReads++
		}
	}
	fmt.Printf("re-join leg: %d hand-off windows, %d gets during windows, %d stale reads\n",
		windows, windowGets, staleReads)
	fmt.Println("shape: the Zipf head is served owner-locally — point p99 and msgs/op drop with the cache on,")
	fmt.Println("       facet repeats become owner-local partial merges, and generation fencing keeps every")
	fmt.Println("       read fresh across kill/re-join hand-off windows")
	return map[string]float64{
		"corpus_docs":                float64(corpus),
		"p99_get_ms_cached":          res[0].p99,
		"p99_get_ms_uncached":        res[1].p99,
		"get_msgs_per_op_cached":     res[0].getMsgs,
		"get_msgs_per_op_uncached":   res[1].getMsgs,
		"point_hit_rate":             res[0].hitRate,
		"facet_msgs_per_op_cached":   res[0].facetMsgs,
		"facet_msgs_per_op_uncached": res[1].facetMsgs,
		"rejoin_windows":             float64(windows),
		"gets_during_window":         float64(windowGets),
		"stale_reads":                float64(staleReads),
		"pending_after_drain":        float64(sm.HandoffPending()),
	}
}

// ---------------------------------------------------------------- E23

// e23 measures storage tier 2 on a 100k-document corpus. Store layer:
// the segment store's replay wall time and cold-scan throughput (disk
// bytes over scan wall time on a fresh re-open, sealed segments read
// through their mappings, codec None so the read path, not inflate, is
// measured), then a merge pass reports disk amplification before and
// after folding sealed segments — the corpus carries second versions
// and tombstoned chains, so merge has superseded frames to reclaim.
// Engine layer: the same full scan runs paged (default page) and
// unpaged (ablation), and the fabric's per-reply high-water mark shows
// paging bounding peak reply size at O(page) instead of O(corpus).
func e23() map[string]float64 {
	const corpus = 100000
	const updates = corpus / 10 // documents that get a second version
	const deletes = corpus / 20 // documents tombstoned outright
	metrics := map[string]float64{"corpus_docs": corpus}
	pad := strings.Repeat("storage tier two corpus ", 6)
	dir, err := os.MkdirTemp("", "implbench-e23-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := storage.Options{Dir: dir, Codec: compress.None, RetainVersions: 1}
	st, err := storage.Open(1, opts)
	if err != nil {
		log.Fatal(err)
	}
	keys := make([]docmodel.VersionKey, 0, corpus)
	for i := 0; i < corpus; i++ {
		k, err := st.Put(&docmodel.Document{
			MediaType: "relational/row", Source: "bench",
			Root: docmodel.Object(
				docmodel.F("i", docmodel.Int(int64(i))),
				docmodel.F("pad", docmodel.String(pad)),
			),
		})
		if err != nil {
			log.Fatal(err)
		}
		keys = append(keys, k)
	}
	for i := 0; i < updates; i++ {
		if _, err := st.Put(&docmodel.Document{
			ID: keys[i].Doc, MediaType: "relational/row", Source: "bench",
			Root: docmodel.Object(
				docmodel.F("i", docmodel.Int(int64(i))),
				docmodel.F("rev", docmodel.Int(2)),
				docmodel.F("pad", docmodel.String(pad)),
			),
		}); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < deletes; i++ {
		if _, err := st.Delete(keys[corpus-1-i].Doc); err != nil {
			log.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	st2, err := storage.Open(1, opts)
	if err != nil {
		log.Fatal(err)
	}
	replayMs := float64(time.Since(start).Microseconds()) / 1000

	_, diskBefore := st2.StorageFootprint()
	start = time.Now()
	scanned := 0
	st2.Scan(func(*docmodel.Document) bool { scanned++; return true })
	scanSec := time.Since(start).Seconds()
	scanMBs := float64(diskBefore) / (1 << 20) / scanSec
	if scanned != corpus-deletes {
		log.Fatalf("e23: cold scan saw %d docs, want %d", scanned, corpus-deletes)
	}

	start = time.Now()
	folded, err := st2.Merge()
	if err != nil {
		log.Fatal(err)
	}
	mergeMs := float64(time.Since(start).Microseconds()) / 1000
	live, diskAfter := st2.StorageFootprint()
	if err := st2.Close(); err != nil {
		log.Fatal(err)
	}

	ampAfter := 0.0
	if live > 0 && diskAfter > 0 {
		ampAfter = float64(diskAfter) / float64(live)
	}
	fmt.Printf("%12s %16s %14s %16s %16s %10s\n",
		"replay ms", "cold scan MB/s", "merge ms", "disk MB before", "disk MB after", "amp after")
	fmt.Printf("%12.1f %16.0f %14.1f %16.2f %16.2f %10.2f\n",
		replayMs, scanMBs, mergeMs,
		float64(diskBefore)/(1<<20), float64(diskAfter)/(1<<20), ampAfter)
	metrics["replay_ms_segment"] = replayMs
	metrics["cold_scan_mb_s_segment"] = scanMBs
	metrics["merge_ms_segment"] = mergeMs
	metrics["merge_folded_segment"] = boolMetric(folded)
	metrics["disk_mb_before_merge_segment"] = float64(diskBefore) / (1 << 20)
	metrics["disk_mb_after_merge_segment"] = float64(diskAfter) / (1 << 20)
	metrics["live_mb_segment"] = float64(live) / (1 << 20)

	// Engine layer: peak per-reply bytes with the paged protocol vs the
	// unpaged ablation over the identical corpus and scan.
	const scanDocs = 4000
	for _, mode := range []struct {
		key  string
		page int
	}{{"paged", 0}, {"unpaged", -1}} {
		app := mustOpen(func(c *impliance.Config) {
			c.DataNodes = 4
			c.ScanPageDocs = mode.page
			c.Annotators = []annot.Annotator{}
		})
		g := workload.New(23)
		for _, it := range g.UniformRows(scanDocs, 1000, 20, 8) {
			if _, err := app.Ingest(impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source}); err != nil {
				log.Fatal(err)
			}
		}
		app.Drain()
		eng := app.Engine()
		eng.Fabric().ResetNetStats()
		res, err := app.RunContext(context.Background(), impliance.Query{Filter: impliance.True()})
		if err != nil {
			log.Fatal(err)
		}
		peak := eng.Fabric().NetStats().MaxReplyBytes
		fmt.Printf("scan %-8s: %d rows, peak reply %d bytes\n", mode.key, len(res.Rows), peak)
		metrics["scan_rows_"+mode.key] = float64(len(res.Rows))
		metrics["peak_reply_bytes_"+mode.key] = float64(peak)
		app.Close()
	}
	fmt.Println("shape: the segment store replays frame indexes instead of re-decoding the corpus; cold")
	fmt.Println("       scans decode straight from the page cache; merge folds sealed segments and reclaims")
	fmt.Println("       superseded versions and tombstoned chains, so disk amplification drops toward 1;")
	fmt.Println("       paged scans bound peak per-reply bytes at O(page) where the ablation ships O(corpus)")
	return metrics
}

// e24: 128-node scripted churn on the deterministic simulator —
// cascading crashes, transient blackholes, and concurrent re-joins drawn
// from a seeded fault script while ingest keeps running. The claims:
// zero acked writes lost, every hand-off window eventually closes, the
// ring invariant holds at every step, and two runs of the same seed
// produce byte-identical decision traces (the replay guarantee CI leans
// on: a failure reproduces from the printed seed alone).
func e24() map[string]float64 {
	cfg := clustertest.ChurnConfig{
		Nodes:       128,
		Steps:       24,
		DocsPerStep: 8,
		MaxDead:     4,
		Seed:        2007,
	}
	r1, err := clustertest.RunChurn(cfg)
	if err != nil {
		log.Fatal(err)
	}
	r2, err := clustertest.RunChurn(cfg)
	if err != nil {
		log.Fatal(err)
	}
	deterministic := r1.TraceHash == r2.TraceHash && r1.TraceEvents == r2.TraceEvents

	fmt.Printf("seed %d: %d nodes, %d steps — %d crashes, %d revives, %d isolations\n",
		r1.Seed, r1.Nodes, r1.Steps, r1.Crashes, r1.Revives, r1.Isolations)
	fmt.Printf("acked %d, lost %d, ring violations %d, windows open at end %d (converged=%v)\n",
		r1.Acked, r1.Lost, r1.RingViolations, r1.WindowsOpen, r1.Converged)
	fmt.Printf("trace: %d events, hash %016x, run 2 hash %016x (deterministic=%v)\n",
		r1.TraceEvents, r1.TraceHash, r2.TraceHash, deterministic)
	fmt.Printf("virtual time simulated: %.3fs\n", r1.VirtualSeconds)
	fmt.Println("shape: churn at appliance scale is invisible to acked writes — recovery and re-join")
	fmt.Println("       converge every hand-off window, and the simulated schedule replays exactly from")
	fmt.Println("       the seed, so any failure in this scenario is a one-command reproduction")
	return map[string]float64{
		"nodes":            float64(r1.Nodes),
		"steps":            float64(r1.Steps),
		"crashes":          float64(r1.Crashes),
		"revives":          float64(r1.Revives),
		"isolations":       float64(r1.Isolations),
		"acked":            float64(r1.Acked),
		"lost":             float64(r1.Lost),
		"ring_violations":  float64(r1.RingViolations),
		"windows_open_end": float64(r1.WindowsOpen),
		"converged":        boolMetric(r1.Converged),
		"deterministic":    boolMetric(deterministic),
		"trace_events":     float64(r1.TraceEvents),
		"virtual_seconds":  r1.VirtualSeconds,
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------- E25

// e25 proves the overload-control goodput curve with an open-loop
// driver. Closed-loop clients cannot see overload — back-pressure slows
// them down, so the system is never offered more than it absorbs — so
// the harness fires interactive queries on a seeded Poisson schedule
// regardless of completions and sweeps offered load across the
// saturation knee (0.5×, 1×, 2×, 3× the measured closed-loop capacity).
// Two tenants share the interactive class, exercising the per-tenant
// token buckets, while a trickle of ingest keeps background and
// durability work flowing through the pool. The admission-on sweep is
// then compared against the admission-off FIFO ablation at 2×
// saturation: with the gate, excess arrivals are fast-rejected before
// any pool dispatch and the admitted operations hold their latency SLO;
// without it, every arrival queues, waits blow through deadlines, and
// the pool spends its time shedding work that is already dead.
func e25() map[string]float64 {
	const (
		corpus = 3000
		keyMax = 1000
		legDur = 1200 * time.Millisecond
		satDur = 800 * time.Millisecond
		opSLO  = 250 * time.Millisecond
	)
	metrics := map[string]float64{}

	newInstance := func(mutate func(*impliance.Config)) *impliance.Appliance {
		app := mustOpen(func(c *impliance.Config) {
			c.DataNodes = 8
			c.Annotators = []annot.Annotator{} // measure the raw request path
			if mutate != nil {
				mutate(c)
			}
		})
		items := make([]impliance.Item, 0, corpus)
		for _, it := range workload.New(25).UniformRows(corpus, keyMax, 20, 8) {
			items = append(items, impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source})
		}
		if _, err := app.IngestBatchContext(context.Background(), items); err != nil {
			log.Fatal(err)
		}
		app.Drain()
		return app
	}

	// Pre-drawn Zipf thresholds: every run (and both instances) sees the
	// identical key sequence. Range predicates plan as pushed-down scans,
	// so each operation is a streaming fan-out across the ring — the
	// path whose un-dispatched node calls the deadline shedder counts.
	thresholds := workload.New(2525).Zipf(100000, 400, 1.1)
	interOp := func(app *impliance.Appliance, tenant string, i int) error {
		q := impliance.Query{Filter: impliance.Cmp("/k", impliance.OpLt, impliance.Int(40+thresholds[i%len(thresholds)]))}
		cur, err := app.RunStream(context.Background(), q,
			impliance.WithDeadline(opSLO), impliance.WithTenant(tenant))
		if err != nil {
			return err
		}
		for cur.Next() {
		}
		return cur.Close()
	}
	ingestItems := workload.New(26).UniformRows(6000, keyMax, 20, 8)
	ingestOp := func(app *impliance.Appliance) func(int) error {
		return func(i int) error {
			it := ingestItems[i%len(ingestItems)]
			ctx, cancel := context.WithTimeout(context.Background(), opSLO)
			defer cancel()
			_, err := app.IngestContext(ctx, impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source})
			return err
		}
	}
	isReject := func(err error) bool { return errors.Is(err, impliance.ErrOverloaded) }

	// (a) Closed-loop saturation: the completions/second ceiling when
	// clients wait for replies — the capacity the sweep is normalized to.
	satApp := newInstance(nil)
	var satDone atomic.Int64
	var satWG sync.WaitGroup
	satEnd := time.Now().Add(satDur)
	for w := 0; w < 16; w++ {
		satWG.Add(1)
		go func(w int) {
			defer satWG.Done()
			for i := w; time.Now().Before(satEnd); i += 16 {
				if err := interOp(satApp, "sat", i); err == nil {
					satDone.Add(1)
				}
			}
		}(w)
	}
	satWG.Wait()
	sat := float64(satDone.Load()) / satDur.Seconds()

	// (b) Unloaded latency baseline: open-loop at 25% of saturation.
	base := workload.RunOpenLoop(legDur, &workload.OpenLoopClass{
		Name:     "unloaded",
		Arrivals: workload.PoissonArrivals(1, 0.25*sat),
		SLO:      opSLO,
		Op:       func(i int) error { return interOp(satApp, "t0", i) },
		IsReject: isReject,
	})[0]
	unloadedP99 := base.Hist.Quantile(0.99)
	satApp.Close()

	// One leg of the sweep: two interactive tenants at mult×sat total
	// plus an ingest trickle; late completions count against the SLO.
	runLeg := func(app *impliance.Appliance, mult float64, seed int64) (offered, good, rejected, failed int, goodput float64, p99 time.Duration) {
		rate := mult * sat / 2
		reports := workload.RunOpenLoop(legDur,
			&workload.OpenLoopClass{Name: "t0", Arrivals: workload.PoissonArrivals(seed, rate), SLO: opSLO,
				Op: func(i int) error { return interOp(app, "t0", 2*i) }, IsReject: isReject},
			&workload.OpenLoopClass{Name: "t1", Arrivals: workload.PoissonArrivals(seed+1, rate), SLO: opSLO,
				Op: func(i int) error { return interOp(app, "t1", 2*i+1) }, IsReject: isReject},
			&workload.OpenLoopClass{Name: "ingest", Arrivals: workload.PoissonArrivals(seed+2, 60), SLO: opSLO,
				Op: ingestOp(app), IsReject: isReject},
		)
		for _, r := range reports[:2] {
			offered += r.Offered
			good += r.Good
			rejected += r.Rejected
			failed += r.Failed + r.Late
			goodput += r.Goodput
			if q := r.Hist.Quantile(0.99); q > p99 {
				p99 = q
			}
		}
		app.Drain()
		return
	}

	// (c) Admission-on sweep. The per-tenant bucket refills at 0.3×sat,
	// so the two tenants together are capped at ~60% of capacity — the
	// admitted stream stays on the good side of the knee at any offered
	// load. Burst is kept to 100ms of refill so a short leg cannot ride
	// the bucket's idle accumulation past the cap.
	admApp := newInstance(func(c *impliance.Config) {
		c.AdmissionInteractiveRate = 0.3 * sat
		c.AdmissionInteractiveBurst = 0.03 * sat
		c.AdmissionIngestRate = 5000
	})
	fmt.Printf("closed-loop saturation %.0f ops/s; unloaded p99 %.2fms; per-tenant admission rate %.0f/s\n",
		sat, float64(unloadedP99.Microseconds())/1000, 0.3*sat)
	fmt.Printf("%-12s %10s %10s %10s %10s %12s %10s\n",
		"offered", "fired", "good", "rejected", "failed", "goodput/s", "p99 ms")
	mults := []struct {
		mult  float64
		tag   string
		seedb int64
	}{{0.5, "x05", 100}, {1, "x10", 200}, {2, "x20", 300}, {3, "x30", 400}}
	var admitted2xP99 time.Duration
	for _, m := range mults {
		offered, good, rejected, failed, goodput, p99 := runLeg(admApp, m.mult, m.seedb)
		fmt.Printf("%-12s %10d %10d %10d %10d %12.0f %10.2f\n",
			fmt.Sprintf("%.1f x sat", m.mult), offered, good, rejected, failed, goodput,
			float64(p99.Microseconds())/1000)
		metrics["offered_"+m.tag+"_per_sec"] = float64(offered) / legDur.Seconds()
		metrics["goodput_"+m.tag] = goodput
		metrics["rejected_"+m.tag] = float64(rejected)
		metrics["failed_"+m.tag] = float64(failed)
		metrics["p99_ms_"+m.tag] = float64(p99.Microseconds()) / 1000
		if m.tag == "x20" {
			admitted2xP99 = p99
		}
	}
	admMetrics := admApp.MetricsSnapshot()
	admApp.Close()

	// (d) Ablation: no admission gate, FIFO pool, same 2× leg.
	fifoApp := newInstance(func(c *impliance.Config) {
		c.DisableAdmission = true
		c.FIFOScheduling = true
	})
	offeredF, goodF, _, failedF, goodputF, p99F := runLeg(fifoApp, 2, 300)
	fifoMetrics := fifoApp.MetricsSnapshot()
	fifoApp.Close()
	fmt.Printf("%-12s %10d %10d %10s %10d %12.0f %10.2f   (no admission, FIFO)\n",
		"2.0 x sat", offeredF, goodF, "-", failedF, goodputF, float64(p99F.Microseconds())/1000)

	durabilityShed := func(m impliance.Metrics) float64 {
		d := m.Sched["durability"]
		return float64(d.ShedAtSubmit + d.ShedAtDequeue)
	}
	fifoInter := fifoMetrics.Sched["interactive"]
	fmt.Printf("shed at dequeue without admission: %d pool tasks, %d stream node calls; queue-full rejects: %d\n",
		fifoInter.ShedAtDequeue, fifoMetrics.StreamShedCalls, fifoInter.RejectedFull)
	fmt.Printf("durability sheds (both instances): %.0f — replication and repair are never dropped\n",
		durabilityShed(admMetrics)+durabilityShed(fifoMetrics))
	fmt.Println("shape: goodput with the gate tracks the admitted rate flat across the knee while p99 holds")
	fmt.Println("       near its unloaded value; without the gate the 2x leg queues everything, deadline-dead")
	fmt.Println("       work is shed after waiting, and goodput lands at or below the gated line")

	metrics["sat_ops_per_sec"] = sat
	metrics["unloaded_p99_ms"] = float64(unloadedP99.Microseconds()) / 1000
	metrics["p99_admission_2x_ms"] = float64(admitted2xP99.Microseconds()) / 1000
	metrics["goodput_admission_2x"] = metrics["goodput_x20"]
	metrics["goodput_noadmission_2x"] = goodputF
	metrics["p99_noadmission_2x_ms"] = float64(p99F.Microseconds()) / 1000
	metrics["admission_rejected_total"] = float64(admMetrics.Admission["interactive"].Rejected)
	metrics["shed_at_dequeue_noadmission"] = float64(fifoInter.ShedAtDequeue)
	metrics["queue_full_rejects_noadmission"] = float64(fifoInter.RejectedFull)
	metrics["stream_shed_noadmission"] = float64(fifoMetrics.StreamShedCalls)
	metrics["durability_shed_total"] = durabilityShed(admMetrics) + durabilityShed(fifoMetrics)
	// Jain's index over the two tenants' admitted interactive
	// operations: identical offered rates through per-tenant buckets
	// must admit near-identical shares.
	metrics["fairness_index"] = admMetrics.AdmissionFairness
	fmt.Printf("cross-tenant fairness (Jain, 2 tenants): %.3f\n", admMetrics.AdmissionFairness)
	return metrics
}

// ---------------------------------------------------------------- E26

// e26 measures the live-tailing subsystem end to end: 16 blocking
// subscribers share one filtered subscription feed while ingest load
// runs through a kill / revive / hand-off cycle on a data node. The
// deliverable is the exactly-once audit — every acknowledged matching
// write reaches every subscriber exactly once across the re-join,
// because recovery and hand-off completion fence the affected
// partitions and each subscription replays from its acknowledged
// watermark — plus the fan-out rate and the delivery-lag p99 observed
// while the churn was in flight. CI asserts lost == 0 and
// duplicates == 0.
func e26() map[string]float64 {
	const (
		subscribers = 16
		warmDocs    = 200
		outageDocs  = 200
		windowDocs  = 150
		finalDocs   = 150
	)
	app := mustOpen()
	defer app.Close()
	eng := app.Engine()

	type subTail struct {
		cur  *impliance.TailCursor
		mu   sync.Mutex
		seen map[impliance.DocID]int
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	subs := make([]*subTail, subscribers)
	for i := range subs {
		cur, err := app.Tail(impliance.SourceIs("cdc"),
			impliance.WithTailPolicy(impliance.TailPolicyBlock),
			impliance.WithTailBuffer(1024))
		if err != nil {
			log.Fatal(err)
		}
		s := &subTail{cur: cur, seen: map[impliance.DocID]int{}}
		subs[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ev, err := s.cur.Next(ctx)
				if err != nil {
					return
				}
				s.mu.Lock()
				s.seen[ev.Doc.ID]++
				s.mu.Unlock()
			}
		}()
	}

	var acked []impliance.DocID
	seq := 0
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			id, err := app.Ingest(impliance.Item{
				Body:      impliance.Object(impliance.F("n", impliance.Int(int64(seq)))),
				MediaType: "application/json",
				Source:    "cdc",
			})
			if err == nil {
				acked = append(acked, id)
			}
		}
	}

	start := time.Now()
	ingest(warmDocs)

	// Kill a data node mid-stream: the next heartbeat recovers it out of
	// the ring and FenceAll voids every queued undelivered event.
	dead := eng.DataNodeIDs()[1]
	eng.Fabric().Kill(dead)
	eng.HeartbeatTick()
	app.Drain()
	ingest(outageDocs)

	// Revive and re-join: hand-off windows open, writes keep landing
	// while they drain, and each completion fences its partition.
	eng.Fabric().Revive(dead)
	eng.HeartbeatTick()
	sm := eng.StorageManager()
	windows := sm.HandoffPending()
	ingest(windowDocs)
	for round := 0; sm.HandoffPending() > 0 && round < 200; round++ {
		eng.HeartbeatTick()
		app.Drain()
	}
	ingest(finalDocs)
	app.Drain()

	// Wait until every subscriber has caught up with every acked write.
	caughtUp := 0
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		caughtUp = 0
		for _, s := range subs {
			s.mu.Lock()
			if len(s.seen) >= len(acked) {
				caughtUp++
			}
			s.mu.Unlock()
		}
		if caughtUp == subscribers {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)
	cancel()
	for _, s := range subs {
		s.cur.Close()
	}
	wg.Wait()

	lost, duplicates, deliveredTotal := 0, 0, 0
	for _, s := range subs {
		if missing := len(acked) - len(s.seen); missing > 0 {
			lost += missing
		}
		for _, n := range s.seen {
			deliveredTotal += n
			duplicates += n - 1
		}
	}
	tm := app.MetricsSnapshot().Tail
	fanout := float64(deliveredTotal) / elapsed.Seconds()
	fmt.Printf("%d subscribers, %d acked writes, %d hand-off windows during re-join\n",
		subscribers, len(acked), windows)
	fmt.Printf("fan-out %.0f events/sec, delivery-lag p99 %.2f ms, %d migrations, %d drops\n",
		fanout, float64(tm.LagP99Us)/1000, tm.Migrations, tm.Drops)
	fmt.Printf("exactly-once audit: %d lost, %d duplicates (%d/%d subscribers caught up)\n",
		lost, duplicates, caughtUp, subscribers)
	fmt.Println("shape: watermark-resumed migration keeps the feed gap-free and duplicate-free across")
	fmt.Println("       the crash and the hand-off windows; blocking subscribers never shed, so the")
	fmt.Println("       cost of the fences shows up as a bounded lag spike, not as data loss")
	return map[string]float64{
		"subscribers":           float64(subscribers),
		"acked_events":          float64(len(acked)),
		"fanout_events_per_sec": fanout,
		"delivery_lag_p99_ms":   float64(tm.LagP99Us) / 1000,
		"lost":                  float64(lost),
		"duplicates":            float64(duplicates),
		"migrations":            float64(tm.Migrations),
		"drops":                 float64(tm.Drops),
		"rejoin_windows":        float64(windows),
	}
}
