package main

import (
	"context"
	"runtime"
)

// perLayerMetrics assembles the traced run's metrics: whole-op spans and
// counter deltas from the tracer, phase-level counter movement, the
// engine's own end-of-run statistics, and the layer probes.
func perLayerMetrics(o runOpts, r *results, tr *tracer, corp *corpus) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), ceiling)
	defer cancel()
	m, err := runProbes(ctx, o.outDir, o.seed, corp, tr)
	if err != nil {
		return nil, err
	}

	// Whole-op spans, by phase and span name.
	opNs := func(names ...string) float64 {
		var s samples
		for _, n := range names {
			if a := tr.agg[n]; a != nil {
				s = append(s, a.dur...)
			}
		}
		return quantile(s.sorted(), 0.5)
	}
	// Counter deltas summed over span names, and how many spans that was.
	sum := func(names ...string) (opCounters, int, int) {
		var c opCounters
		ops, rows := 0, 0
		for _, n := range names {
			if a := tr.agg[n]; a != nil {
				c.add(a.sum)
				ops += len(a.dur)
				rows += a.rows
			}
		}
		return c, ops, rows
	}
	per := func(v uint64, n int) float64 { return float64(v) / float64(n) }

	m["core.get_hit_ns"] = opNs("serve.get_hit")
	m["core.get_miss_ns"] = opNs("churn.get_miss")
	m["core.search_ns"] = opNs("serve.search")
	m["core.facet_ns"] = opNs("serve.facet")
	m["core.sql_ns"] = opNs("serve.sql")
	m["core.update_ns"] = opNs("serve.update")
	m["core.scan_ns"] = opNs("scan.scan")
	m["core.agg_ns"] = opNs("scan.agg")
	m["core.ingest_doc_ns"] = quantile(r.ingest.batchNs.sorted(), 0.5) / unitBatch

	miss, nMiss, _ := sum("churn.get_miss")
	m["core.msgs_per_get_miss"] = per(miss.netMsgs, nMiss)
	m["core.allocs_per_get_miss"] = per(miss.allocs, nMiss)
	writes, nWrites, _ := sum("churn.update", "churn.ingest", "churn.delete")
	m["core.msgs_per_write"] = per(writes.netMsgs, nWrites)
	m["core.allocB_per_write"] = per(writes.allocBytes, nWrites)
	scans, nScans, _ := sum("scan.scan", "scan.scan_wide", "scan.agg")
	m["core.msgs_per_scan"] = per(scans.netMsgs, nScans)
	m["core.netB_per_scan"] = per(scans.netBytes, nScans)
	m["core.allocB_per_scan"] = per(scans.allocBytes, nScans)
	rowScans, nRowScans, rows := sum("scan.scan", "scan.scan_wide")
	m["core.rows_decoded_per_row_returned"] = per(rowScans.storeScanned, rows)
	m["core.netB_per_ingest_doc"] = per(r.ingest.netBytes, r.ingest.docs)
	m["core.allocB_per_ingest_doc"] = per(r.ingest.allocBytes, r.ingest.docs)

	serve := r.serve.Counters
	m["core.value_probes_pruned_share"] = serve["value_probes_pruned_share"]
	m["cache.point_hit_rate"] = serve["point_hit_rate"]
	m["cache.partial_hit_rate"] = serve["partial_hit_rate"]
	m["cache.invalidations_per_write"] = r.churn.Counters["point_invalidations"] / float64(nWritesAll(r.churn))

	// Go runtime over the workload's own phase.
	own := map[string]*phaseReport{"scan": r.scan, "serve": r.serve, "churn": r.churn, "ingest": r.ingest.phaseReport}[o.workload]
	m["go.gc_cycles_per_s"], m["go.gc_pause_ms_per_s"] = own.Counters["gc_cycles_per_s"], own.Counters["gc_pause_ms_per_s"]

	m["sched.wait_p99_us.interactive"] = float64(r.sched["interactive"].WaitP99Us)
	m["sched.wait_p99_us.background"] = float64(r.sched["background"].WaitP99Us)
	m["sched.drain_ms"] = r.ingest.drainMs
	m["tail.broker_lag_p50_us"] = float64(r.tail.LagP50Us)
	m["tail.delivered_per_published"] = r.churn.extra["tail_delivered_per_published"]

	// A layer's self time, seen from outside, is approximate: the whole-op
	// median minus the probe medians on the operation's blocking path
	// (README.md lists the paths).
	m["core.glue_ns.get_miss"] = m["core.get_miss_ns"] - (m["sched.admit_ns"] + m["virt.route_ns"] +
		m["fabric.call_rtt_ns"] + m["storage.get_cold_ns"] + m["docmodel.encode_ns"] +
		m["docmodel.decode_ns"] + m["cache.point_put_ns"])
	// Every data node scans its share at once, but the nodes share the
	// cores: the blocking path holds dataNodes/cores node scans in a row.
	perNodeDocs := per(rowScans.storeScanned, nRowScans) / dataNodes
	inRow := float64(dataNodes) / float64(min(dataNodes, runtime.GOMAXPROCS(0)))
	m["core.glue_ns.scan"] = m["core.scan_ns"] - (m["plan.plan_ns"] + m["fabric.call_rtt_64k_ns"] +
		inRow*perNodeDocs/m["storage.scan_docs_per_s"]*1e9)

	m["bench.trace_overhead_pct"] = tr.overheadPct()
	return m, nil
}

// nWritesAll counts the phase's write operations, traced or bare.
func nWritesAll(pr *phaseReport) int {
	return len(pr.lat[opUpdate]) + len(pr.lat[opIngest]) + len(pr.lat[opDelete])
}
