package main

// The catalogue: the single place that names workloads and metrics.
// BENCHMARK.json at the repository root is `bench manifest` output, and a
// test holds the two together.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
// Every run executes all four mixes, so that every metric exists on every
// workload: each phase gets its base share of the seconds, and the phase
// the workload is named after gets mainBonus on top. The scan phase's base
// is the largest because its operations are the longest (0.3-0.8 s each):
// it needs the time to collect enough samples for a steady median.
const (
	runSeconds = 18
	mainBonus  = 0.20
)

var baseShare = map[string]float64{"scan": 0.30, "serve": 0.15, "churn": 0.175, "ingest": 0.175}

var workloads = []workloadDef{
	{"serve", "Interactive retrieval mix (Zipf Gets, search, facets, SQL, 5% updates): the working set fits the caches, so cache, index, plan/query, routing and admission do the work; storage and compress do little."},
	{"scan", "Filtered scans and group-bys over 20,000 documents, no writes, no repeats: node scan, frame and document decode, expr eval, paging and merge do the work; the point cache and value index do none."},
	{"ingest", "Bulk load of five mixed document kinds, parsed and raw, clock stopped at Drain; then close, size, reopen and read back: sniffers, encode, compress, append, replication, background indexing."},
	{"churn", "Write-heavy mix beside Gets that always miss the point cache, with two blocking tail subscribers: invalidation, routed store reads, decode, index add and remove, and the tail broker do the work."},
}

const (
	lower  = "lower"
	higher = "higher"
)

// Bounds: how much worse than the parent's median a metric may get. Each is
// about three times the widest run-to-run spread (interquartile range of
// ten seeds over their median) seen on any workload at runSeconds, and at
// least 2.5 times the widest drift between two ten-run medians of the same
// code measured half an hour apart (5-6 % on throughputs, 10 % on
// latencies, on this sandbox), capped at the contract's 0.25.
// bench/results records both.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"get_p50_us", "us", lower, 0.25},
	{"get_p99_us", "us", lower, 0.25},
	{"search_p50_us", "us", lower, 0.25},
	{"facet_p50_us", "us", lower, 0.25},
	{"sql_p50_us", "us", lower, 0.25},
	{"write_p50_us", "us", lower, 0.15},
	{"write_p99_us", "us", lower, 0.25},
	{"scan_p50_ms", "ms", lower, 0.25},
	{"agg_p50_ms", "ms", lower, 0.25},
	{"scan_docs_per_s", "docs/s", higher, 0.15},
	{"ingest_docs_per_s", "docs/s", higher, 0.15},
	{"reopen_s", "s", lower, 0.25},
	{"stored_bytes_per_raw_byte", "ratio", lower, 0.02},
	{"tail_lag_p99_ms", "ms", lower, 0.25},
	{"churn_ops_per_s", "ops/s", higher, 0.15},
}

var perLayer = []metricDef{
	// core + facade: whole-op spans and counter deltas per operation.
	{Name: "core.get_hit_ns", Unit: "ns", Better: lower},
	{Name: "core.get_miss_ns", Unit: "ns", Better: lower},
	{Name: "core.search_ns", Unit: "ns", Better: lower},
	{Name: "core.facet_ns", Unit: "ns", Better: lower},
	{Name: "core.sql_ns", Unit: "ns", Better: lower},
	{Name: "core.update_ns", Unit: "ns", Better: lower},
	{Name: "core.scan_ns", Unit: "ns", Better: lower},
	{Name: "core.agg_ns", Unit: "ns", Better: lower},
	{Name: "core.ingest_doc_ns", Unit: "ns", Better: lower},
	{Name: "core.msgs_per_get_miss", Unit: "count", Better: lower},
	{Name: "core.msgs_per_write", Unit: "count", Better: lower},
	{Name: "core.msgs_per_scan", Unit: "count", Better: lower},
	{Name: "core.netB_per_scan", Unit: "B", Better: lower},
	{Name: "core.netB_per_ingest_doc", Unit: "B", Better: lower},
	{Name: "core.allocs_per_get_miss", Unit: "count", Better: lower},
	{Name: "core.allocB_per_write", Unit: "B", Better: lower},
	{Name: "core.allocB_per_scan", Unit: "B", Better: lower},
	{Name: "core.allocB_per_ingest_doc", Unit: "B", Better: lower},
	{Name: "core.rows_decoded_per_row_returned", Unit: "ratio", Better: lower},
	{Name: "core.value_probes_pruned_share", Unit: "ratio", Better: higher},
	{Name: "core.glue_ns.get_miss", Unit: "ns", Better: lower},
	{Name: "core.glue_ns.scan", Unit: "ns", Better: lower},
	// Go runtime, over the workload's own phase.
	{Name: "go.gc_cycles_per_s", Unit: "1/s", Better: lower},
	{Name: "go.gc_pause_ms_per_s", Unit: "ms/s", Better: lower},
	// sched
	{Name: "sched.admit_ns", Unit: "ns", Better: lower},
	{Name: "sched.submit_run_ns", Unit: "ns", Better: lower},
	{Name: "sched.wait_p99_us.interactive", Unit: "us", Better: lower},
	{Name: "sched.wait_p99_us.background", Unit: "us", Better: lower},
	{Name: "sched.drain_ms", Unit: "ms", Better: lower},
	// cache
	{Name: "cache.point_hit_rate", Unit: "ratio", Better: higher},
	{Name: "cache.partial_hit_rate", Unit: "ratio", Better: higher},
	{Name: "cache.point_get_ns", Unit: "ns", Better: lower},
	{Name: "cache.point_put_ns", Unit: "ns", Better: lower},
	{Name: "cache.invalidations_per_write", Unit: "count", Better: lower},
	// virt, fabric
	{Name: "virt.route_ns", Unit: "ns", Better: lower},
	{Name: "fabric.call_rtt_ns", Unit: "ns", Better: lower},
	{Name: "fabric.call_rtt_64k_ns", Unit: "ns", Better: lower},
	// storage
	{Name: "storage.put_ns", Unit: "ns", Better: lower},
	{Name: "storage.put_allocB", Unit: "B", Better: lower},
	{Name: "storage.get_hot_ns", Unit: "ns", Better: lower},
	{Name: "storage.get_cold_ns", Unit: "ns", Better: lower},
	{Name: "storage.get_cold_allocB", Unit: "B", Better: lower},
	{Name: "storage.scan_docs_per_s", Unit: "docs/s", Better: higher},
	{Name: "storage.agg_docs_per_s", Unit: "docs/s", Better: higher},
	{Name: "storage.open_docs_per_s", Unit: "docs/s", Better: higher},
	{Name: "storage.disk_bytes_per_raw_byte", Unit: "ratio", Better: lower},
	// compress, docmodel
	{Name: "compress.encode_frame_ns", Unit: "ns", Better: lower},
	{Name: "compress.encode_allocB", Unit: "B", Better: lower},
	{Name: "compress.decode_frame_ns", Unit: "ns", Better: lower},
	{Name: "compress.decode_allocB", Unit: "B", Better: lower},
	{Name: "compress.stored_per_raw", Unit: "ratio", Better: lower},
	{Name: "docmodel.encode_ns", Unit: "ns", Better: lower},
	{Name: "docmodel.decode_ns", Unit: "ns", Better: lower},
	{Name: "docmodel.decode_allocs", Unit: "count", Better: lower},
	{Name: "docmodel.header_decode_ns", Unit: "ns", Better: lower},
	// index, text, annot, ingest
	{Name: "index.add_ns", Unit: "ns", Better: lower},
	{Name: "index.remove_ns", Unit: "ns", Better: lower},
	{Name: "index.search_ns", Unit: "ns", Better: lower},
	{Name: "index.value_lookup_ns", Unit: "ns", Better: lower},
	{Name: "index.facets_ns", Unit: "ns", Better: lower},
	{Name: "text.analyze_ns_per_kb", Unit: "ns/kB", Better: lower},
	{Name: "annot.run_ns_per_doc", Unit: "ns/doc", Better: lower},
	{Name: "ingest.auto_ns_per_kb", Unit: "ns/kB", Better: lower},
	// expr, exec, plan, query
	{Name: "expr.eval_ns", Unit: "ns", Better: lower},
	{Name: "expr.group_update_ns", Unit: "ns", Better: lower},
	{Name: "expr.partials_codec_ns", Unit: "ns", Better: lower},
	{Name: "exec.filter_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "exec.topk_ns", Unit: "ns", Better: lower},
	{Name: "plan.plan_ns", Unit: "ns", Better: lower},
	{Name: "query.parse_compile_ns", Unit: "ns", Better: lower},
	// tail
	{Name: "tail.publish_deliver_ns", Unit: "ns", Better: lower},
	{Name: "tail.broker_lag_p50_us", Unit: "us", Better: lower},
	{Name: "tail.delivered_per_published", Unit: "ratio", Better: higher},
	// harness
	{Name: "bench.clock_ns", Unit: "ns", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds: the zero Bound is omitted
}

func buildManifest() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
