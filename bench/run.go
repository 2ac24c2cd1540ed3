package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"impliance/internal/core"
)

// runOpts is one invocation of a workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// docs sizes the shared corpus; it is corpusDocs everywhere except in
	// the harness's own smoke test.
	docs int
	// afterSetup, when set, is handed the harness's record of the corpus
	// once the appliance is loaded: tests corrupt an expectation there to
	// show the output checks are live.
	afterSetup func(*corpus)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is everything one run found out.
type runReport struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Traced      bool                   `json:"traced"`
	Clients     int                    `json:"clients"`
	Config      map[string]any         `json:"config"`
	PhaseShares map[string]float64     `json:"phase_seconds"`
	SetupS      float64                `json:"setup_seconds"`
	CloseS      float64                `json:"close_seconds"`
	Phases      []*phaseReport         `json:"phases"`
	TraceFile   string                 `json:"trace_file,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
}

func configDescription() map[string]any {
	return map[string]any{
		"data_nodes": dataNodes, "grid_nodes": gridNodes, "cluster_nodes": clusterNodes,
		"storage_backend": storageBackend, "codec": "flate (default)",
		"caches":        "point 4096, negative 1024, partial 4096, store hot 1024 docs/node (defaults)",
		"segment_bytes": "1 MiB (default)", "scan_page_docs": "256 (default)", "admission": "ungated",
		"flush_policy": flushPolicy, "load": "closed loop",
		"corpus": fmt.Sprintf("rows%dk: UniformRows(%d, %d, %d, %d)", corpusDocs/1000, corpusDocs, keyMax, categories, padWords),
	}
}

// phaseSeconds splits the run's seconds over the four phases (see
// baseShare).
func phaseSeconds(workload string, seconds float64) map[string]float64 {
	out := map[string]float64{}
	for ph, share := range baseShare {
		out[ph] = seconds * share
		if ph == workload {
			out[ph] += seconds * mainBonus
		}
	}
	return out
}

// runWorkload performs one run: set-up, the four phases in a fixed order
// (scan, serve, churn on the shared corpus; ingest on an empty appliance),
// then the metrics.
func runWorkload(o runOpts) (*runReport, error) {
	if _, known := baseShare[o.workload]; !known {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.docs == 0 {
		o.docs = corpusDocs
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &runReport{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Config: configDescription(), PhaseShares: phaseSeconds(o.workload, o.seconds),
		Metrics: map[string]metricValue{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	plan := func(ph string) phasePlan { return phasePlan{seconds: rep.PhaseShares[ph], traced: o.trace} }
	rep.Clients = plan("scan").clients()

	setupCtx, cancelSetup := context.WithTimeout(context.Background(), ceiling)
	e, err := openRows(setupCtx, o.outDir, o.seed, o.docs)
	cancelSetup()
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			e.close()
		}
	}()

	// The ceiling covers the measured part of the run.
	ctx, cancel := context.WithTimeout(context.Background(), ceiling)
	defer cancel()

	rep.SetupS = e.setupS
	if o.afterSetup != nil {
		o.afterSetup(e.corp)
	}
	r := &results{setupS: e.setupS}
	phase := func(name string, fn func() *phaseReport) *phaseReport {
		tr.setPhase(name)
		t0 := time.Now()
		e.app.Drain()
		before := snapshot(e.app)
		pr := fn()
		e.app.Drain()
		pr.Counters = snapshot(e.app).since(before)
		pr.WallS = time.Since(t0).Seconds()
		rep.Phases = append(rep.Phases, pr)
		return pr
	}
	r.scan = phase("scan", func() *phaseReport { return scanPhase(ctx, e, o.seed, plan("scan"), tr) })
	r.serve = phase("serve", func() *phaseReport { return servePhase(ctx, e, o.seed, plan("serve"), tr) })
	r.churn = phase("churn", func() *phaseReport { return churnPhase(ctx, e, o.seed, plan("churn"), tr) })
	r.sched, _, _, _ = e.app.Engine().OverloadStats()
	r.tail = e.app.Engine().TailStats()
	closed = true
	t0 := time.Now()
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	rep.CloseS = time.Since(t0).Seconds()

	tr.setPhase("ingest")
	t0 = time.Now()
	r.ingest, err = ingestPhase(ctx, o.outDir, o.seed, plan("ingest"))
	if err != nil {
		return nil, err
	}
	r.ingest.WallS = time.Since(t0).Seconds()
	rep.Phases = append(rep.Phases, r.ingest.phaseReport)
	r.setupS += r.ingest.emptyOpenS

	panicked := false
	for _, pr := range rep.Phases {
		rep.Attempted += pr.Attempted
		rep.Failed += pr.Failed
		panicked = panicked || pr.panicked
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "bench: %v ceiling reached; unfinished operations count as failed\n", ceiling)
		rep.Failed++
		rep.Attempted++
	}
	if o.trace {
		vals, err := perLayerMetrics(o, r, tr, e.corp)
		if err != nil {
			return nil, err
		}
		fill(rep.Metrics, perLayer, vals)
		if rep.TraceFile, err = tr.write(o.outDir, o.workload); err != nil {
			return nil, err
		}
	} else {
		fill(rep.Metrics, endToEnd, endToEndMetrics(o.workload, r))
	}
	rep.Correct = rep.Failed == 0 && !panicked
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (%v): the run was too short to measure it", name, m.Value)
		}
	}
	return rep, nil
}

func fill(dst map[string]metricValue, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			v = math.NaN()
		}
		dst[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// results gathers what the phases measured, for the metric tables.
type results struct {
	setupS             float64
	scan, serve, churn *phaseReport
	ingest             *ingestResult
	sched              map[string]core.SchedClassMetrics
	tail               core.TailMetrics
}

func usOf(ns float64) float64 { return ns / 1e3 }
func msOf(ns float64) float64 { return ns / 1e6 }

func q(s samples, p float64) float64 { return quantile(s.sorted(), p) }

// endToEndMetrics maps the phases' measurements onto the sixteen
// end-to-end metrics. Every run reports all of them; get_* come from the
// churn phase (miss path) on the churn workload and from the serve phase
// (hit path) otherwise. write_* always come from the churn phase: the
// serve phase's 5 % updates are too few for a steady p99.
func endToEndMetrics(workload string, r *results) map[string]float64 {
	gets := r.serve.lat[opGet]
	if workload == "churn" {
		gets = r.churn.union(getKinds...)
	}
	writes := r.churn.union(writeKinds...)
	return map[string]float64{
		"setup_s":                   r.setupS,
		"get_p50_us":                usOf(q(gets, 0.5)),
		"get_p99_us":                usOf(q(gets, 0.99)),
		"search_p50_us":             usOf(q(r.serve.lat[opSearch], 0.5)),
		"facet_p50_us":              usOf(q(r.serve.lat[opFacet], 0.5)),
		"sql_p50_us":                usOf(q(r.serve.lat[opSQL], 0.5)),
		"write_p50_us":              usOf(q(writes, 0.5)),
		"write_p99_us":              usOf(q(writes, 0.99)),
		"scan_p50_ms":               msOf(q(r.scan.lat[opScan], 0.5)),
		"agg_p50_ms":                msOf(q(r.scan.lat[opAgg], 0.5)),
		"scan_docs_per_s":           r.scan.extra["docs_per_s"],
		"ingest_docs_per_s":         r.ingest.docsPerS,
		"reopen_s":                  r.ingest.reopenS,
		"stored_bytes_per_raw_byte": r.ingest.storedPerRaw,
		"tail_lag_p99_ms":           msOf(q(r.churn.tailLags, 0.99)),
		"churn_ops_per_s":           r.churn.extra["ops_per_s"],
	}
}
