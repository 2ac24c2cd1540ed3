package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"impliance"
	"impliance/internal/core"
	"impliance/internal/docmodel"
)

// Reference rates at the seed commit (2 clients, 2-core sandbox). They
// size the pre-generated sequences: a phase given s seconds gets
// rate x s operations of warm-up-and-measure material times seqHeadroom,
// and the traced run executes exactly rate x s / tracedShare of them.
const (
	refServeOps  = 6000.0 // operations per second
	refScanOps   = 4.6
	refChurnOps  = 5000.0
	refIngestDoc = 1000.0 // documents per second, Drain included

	seqHeadroom = 2.5  // a faster commit runs further into the sequence
	warmShare   = 0.05 // untimed warm-up pass, as a share of rate x s
	tracedShare = 5    // the traced run executes one fifth, with one client
)

// phasePlan says how one phase of a run is driven.
type phasePlan struct {
	seconds float64 // measured time (untraced) or the time the op count is sized for (traced)
	traced  bool
}

func (p phasePlan) clients() int {
	if p.traced {
		return 1
	}
	return nClients
}

// refOps is the number of operations the reference rate does in the
// phase's seconds (at least minRefOps, so that very short runs still
// cover every kind of operation).
func (p phasePlan) refOps(rate float64) int { return max(int(math.Ceil(rate*p.seconds)), minRefOps) }

const minRefOps = 20

// bounds returns the warm-up length and the sequence length to generate;
// the measured pass runs from warm to limit, or, when not traced, until the
// phase's seconds are up.
func (p phasePlan) bounds(rate float64) (warm, limit int) {
	ref := p.refOps(rate)
	warm = max(int(float64(ref)*warmShare), p.clients())
	if p.traced {
		return warm, warm + max(ref/tracedShare, 10)
	}
	return warm, warm + int(float64(ref)*seqHeadroom)
}

// phaseReport is one phase's outcome.
type phaseReport struct {
	Name      string            `json:"name"`
	Seconds   float64           `json:"measured_seconds"`
	Ops       int               `json:"ops"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Timings   map[string]timing `json:"timings"`
	// Counters are the engine's exported counters differenced over the
	// phase; WallS is the phase's wall time, warm-up and drains included.
	Counters map[string]float64 `json:"counters,omitempty"`
	WallS    float64            `json:"wall_seconds"`

	lat      [numOpKinds]samples
	tailLags samples
	extra    map[string]float64
	panicked bool
}

func newReport(name string, res loopResult) *phaseReport {
	r := &phaseReport{Name: name, Seconds: res.elapsed.Seconds(), Timings: map[string]timing{},
		extra: map[string]float64{}, panicked: res.panicked}
	r.Attempted, r.Failed = totals(res.clients)
	r.Ops = r.Attempted
	for k := opKind(0); k < numOpKinds; k++ {
		r.lat[k] = merged(res.clients, k)
		r.time(k.String(), r.lat[k])
	}
	return r
}

// time reports a series under a name, if it has samples.
func (r *phaseReport) time(name string, s samples) {
	if len(s) > 0 {
		r.Timings[name] = summarize(s)
	}
}

// union concatenates the samples of several kinds.
func (r *phaseReport) union(kinds ...opKind) samples {
	var s samples
	for _, k := range kinds {
		s = append(s, r.lat[k]...)
	}
	return s
}

var (
	getKinds   = []opKind{opGet, opGetRecent}
	writeKinds = []opKind{opUpdate, opIngest, opDelete}
)

// measure runs the untimed warm-up pass and then the measured pass.
func measure(ctx context.Context, p phasePlan, ops []op, warm, limit int, cls []*client, exec executor, lockstep bool, between func()) loopResult {
	l := loop{ops: ops, clients: p.clients(), from: 0, limit: warm, lockstep: lockstep}
	l.run(ctx, cls, exec)
	if between != nil {
		between()
	}
	l.from, l.limit, l.record = warm, limit, true
	if !p.traced {
		l.deadline = time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	}
	return l.run(ctx, cls, exec)
}

// ---------------------------------------------------------------- scan

// scanPhase: filtered scans and grouped aggregates, no writes.
func scanPhase(ctx context.Context, e *env, seed int64, p phasePlan, tr *tracer) *phaseReport {
	warm, limit := p.bounds(refScanOps)
	ops := genScanOps(seed, limit, p.clients())
	oracle := newScanOracle(e.corp)
	exec := func(ctx context.Context, cl *client, o *op) (time.Duration, bool) {
		q, check := scanQuery(o, oracle)
		sp := tr.begin(e.app, o)
		t0 := time.Now()
		res, err := e.app.RunContext(ctx, q)
		d := time.Since(t0)
		ok := err == nil && check(res)
		sp.end(e.app, d, rowsOf(res))
		return d, ok
	}
	// The clients run in lockstep: a scan takes up to twice as long beside
	// another scan as alone on the two cores, so how two free-running
	// clients happen to overlap would decide the median. Started together,
	// like operations always run beside each other.
	res := measure(ctx, p, ops, warm, limit, newClients(p.clients()), exec, true, nil)
	r := newReport("scan", res)
	r.extra["docs_per_s"] = float64(len(e.corp.docs)) * float64(r.Ops-r.Failed) / r.Seconds
	return r
}

func rowsOf(res *impliance.Result) int {
	if res == nil {
		return 0
	}
	return len(res.Rows)
}

// scanQuery builds the operation's query and the check of its answer
// against the oracle.
func scanQuery(o *op, oracle *scanOracle) (impliance.Query, func(*impliance.Result) bool) {
	if o.kind == opAgg {
		want := oracle.groupBelow(o.k)
		q := impliance.Query{
			Filter: impliance.Cmp("/k", impliance.OpLt, impliance.Int(o.k)),
			GroupBy: &impliance.GroupSpec{By: []string{"/cat"}, Aggs: []impliance.AggSpec{
				{Kind: impliance.AggCount}, {Kind: impliance.AggSum, Path: "/val"}}},
		}
		return q, func(res *impliance.Result) bool { return aggMatches(res, want) }
	}
	width := int64(scanWidth)
	if o.kind == opScanWide {
		width = scanWideWidth
	}
	lo, hi := o.k, o.k+width
	q := impliance.Query{Filter: impliance.And(
		impliance.Cmp("/k", impliance.OpGe, impliance.Int(lo)),
		impliance.Cmp("/k", impliance.OpLt, impliance.Int(hi)))}
	want := oracle.rangeCount(lo, hi)
	return q, func(res *impliance.Result) bool {
		if len(res.Rows) != want {
			return false
		}
		for _, row := range res.Rows {
			if len(row.Docs) != 1 {
				return false
			}
			if k := row.Docs[0].First("/k").IntVal(); k < lo || k >= hi {
				return false
			}
		}
		return true
	}
}

// aggMatches compares grouped rows (cat, count, sum) with the oracle; sums
// agree to 1e-6 relative.
func aggMatches(res *impliance.Result, want map[uint8]groupAgg) bool {
	if len(res.Rows) != len(want) {
		return false
	}
	for _, row := range res.Rows {
		if len(row.Cols) != 3 {
			return false
		}
		cat, ok := catOf(row.Cols[0].StringVal())
		if !ok {
			return false
		}
		w, ok := want[cat]
		if !ok || row.Cols[1].IntVal() != w.count {
			return false
		}
		if diff := math.Abs(row.Cols[2].FloatVal() - w.sum); diff > 1e-6*math.Max(math.Abs(w.sum), 1) {
			return false
		}
	}
	return true
}

// --------------------------------------------------------------- serve

// servePhase: the interactive retrieval mix with 5 % updates beside it.
func servePhase(ctx context.Context, e *env, seed int64, p phasePlan, tr *tracer) *phaseReport {
	warm, limit := p.bounds(refServeOps)
	ops := genServeOps(seed, limit, p.clients(), e.corp)
	sqls := map[int64]string{}
	for i := range ops {
		if ops[i].kind == opSQL {
			sqls[ops[i].k] = fmt.Sprintf("SELECT k, cat, val FROM %s WHERE k = %d", rowsViewSQL, ops[i].k)
		}
	}
	app, corp := e.app, e.corp
	exec := func(ctx context.Context, cl *client, o *op) (d time.Duration, ok bool) {
		sp := tr.begin(app, o)
		rows := 0
		switch o.kind {
		case opGet:
			doc := corp.docs[o.doc]
			g := beforeGet(doc)
			t0 := time.Now()
			got, err := app.GetContext(ctx, doc.id)
			d = time.Since(t0)
			_, matches := g.check(doc, got)
			ok = err == nil && matches
		case opSearch:
			token := catToken(uint8(o.doc))
			t0 := time.Now()
			hits, err := app.SearchContext(ctx, token, 10)
			d = time.Since(t0)
			ok = err == nil && len(hits) == 10
			for _, h := range hits {
				ok = ok && len(h.Docs) == 1 && h.Docs[0].First("/cat").StringVal() == token
			}
			rows = len(hits)
		case opFacet:
			cat := facetCats[o.doc]
			req := impliance.FacetRequest{Keyword: catToken(cat), Dimensions: []string{"/cat"}}
			all, untouched := corp.countCat(cat)
			t0 := time.Now()
			res, err := app.FacetsContext(ctx, req)
			d = time.Since(t0)
			ok = err == nil && facetMatches(res, catToken(cat), untouched, all)
		case opSQL:
			stmt := sqls[o.k]
			_, untouched := corp.countK(o.k)
			t0 := time.Now()
			res, err := app.ExecSQLContext(ctx, stmt)
			d = time.Since(t0)
			all, _ := corp.countK(o.k)
			ok = err == nil && len(res.Rows) >= untouched && len(res.Rows) <= all
			if ok {
				for _, row := range res.Rows {
					ok = ok && len(row) == 3 && row[0].IntVal() == o.k
				}
				rows = len(res.Rows)
			}
		case opUpdate:
			d, ok = doUpdate(ctx, app, corp, cl, o)
		}
		sp.end(app, d, rows)
		return d, ok
	}
	res := measure(ctx, p, ops, warm, limit, newClients(p.clients()), exec, false, nil)
	return newReport("serve", res)
}

// facetMatches: the keyword total lies between the untouched and the full
// oracle count, and /cat has the one bucket every match falls into.
func facetMatches(res *impliance.FacetResult, token string, lo, hi int) bool {
	if res == nil || res.Total < lo || res.Total > hi || len(res.Dimensions) != 1 {
		return false
	}
	b := res.Dimensions[0].Buckets
	return len(b) == 1 && b[0].Value.StringVal() == token && b[0].Count >= lo && b[0].Count <= hi
}

// doUpdate writes the operation's pre-built body over its document.
func doUpdate(ctx context.Context, app *impliance.Appliance, corp *corpus, cl *client, o *op) (time.Duration, bool) {
	doc := corp.docs[o.doc]
	prev := doc.ver.Load()
	corp.beginWrite(doc, o.hash)
	t0 := time.Now()
	key, err := app.UpdateContext(ctx, doc.id, o.body)
	d := time.Since(t0)
	endWrite(doc, key, o.hash, err)
	if err != nil {
		return d, false
	}
	doc.val = o.val
	cl.wrote(doc, key, t0, impliance.TailUpdate)
	return d, key.Doc == doc.id && key.Ver == prev+1
}

// --------------------------------------------------------------- churn

// recentRing is how many of its last written IDs a client reads back.
const recentRing = 64

// writeRec is one committed write, kept for the tail checks.
type writeRec struct {
	key   docmodel.VersionKey
	start time.Time
	kind  impliance.TailKind
	c03   bool
}

// wrote records a committed write and queues the document for one
// read-back: the queue holds the client's last recentRing written IDs that
// it has not read since.
func (cl *client) wrote(d *rowDoc, key docmodel.VersionKey, start time.Time, kind impliance.TailKind) {
	cl.writes = append(cl.writes, writeRec{key: key, start: start, kind: kind, c03: d.cat == tailCat})
	if kind == impliance.TailDelete {
		return
	}
	if len(cl.recent) == recentRing {
		cl.recent = cl.recent[:copy(cl.recent, cl.recent[1:])]
	}
	cl.recent = append(cl.recent, d)
}

// takeRecent removes and returns one of the queued documents, or nil when
// every recent write has been read back already. Reading each write back
// once is what makes these Gets misses: the write invalidated the entry
// and nothing has refilled it.
func (cl *client) takeRecent(r uint32) *rowDoc {
	if len(cl.recent) == 0 {
		return nil
	}
	at, last := int(r)%len(cl.recent), len(cl.recent)-1
	d := cl.recent[at]
	cl.recent[at] = cl.recent[last]
	cl.recent = cl.recent[:last]
	return d
}

// forget drops a deleted document from the client's read-back candidates.
func (cl *client) forget(d *rowDoc) {
	kept := cl.recent[:0]
	for _, r := range cl.recent {
		if r != d {
			kept = append(kept, r)
		}
	}
	cl.recent = kept
}

// churnPhase: writes dominate, every Get misses the point cache, two tail
// subscribers follow the writes.
func churnPhase(ctx context.Context, e *env, seed int64, p phasePlan, tr *tracer) *phaseReport {
	warm, limit := p.bounds(refChurnOps)
	ops := genChurnOps(seed, limit, p.clients(), e.corp)
	app, corp := e.app, e.corp
	exec := func(ctx context.Context, cl *client, o *op) (d time.Duration, ok bool) {
		sp := tr.begin(app, o)
		switch o.kind {
		case opUpdate:
			d, ok = doUpdate(ctx, app, corp, cl, o)
		case opIngest:
			doc := &rowDoc{k: o.k, cat: o.cat, val: o.val}
			t0 := time.Now()
			id, err := app.IngestContext(ctx, impliance.Item{Body: o.body, MediaType: rowsMedia, Source: rowsSource})
			d = time.Since(t0)
			if ok = err == nil; ok {
				doc.id = id
				doc.hash.Store(o.hash)
				doc.ver.Store(1)
				cl.ingested = append(cl.ingested, doc)
				cl.wrote(doc, docmodel.VersionKey{Doc: id, Ver: 1}, t0, impliance.TailIngest)
			}
		case opDelete:
			if len(cl.ingested) == 0 {
				return 0, false // the generator never emits this
			}
			at := int(o.r) % len(cl.ingested)
			doc := cl.ingested[at]
			cl.ingested[at] = cl.ingested[len(cl.ingested)-1]
			cl.ingested = cl.ingested[:len(cl.ingested)-1]
			cl.forget(doc)
			t0 := time.Now()
			key, err := app.DeleteContext(ctx, doc.id)
			d = time.Since(t0)
			if ok = err == nil && key.Ver == doc.ver.Load()+1; ok {
				cl.wrote(doc, key, t0, impliance.TailDelete)
			}
		case opGetRecent, opGet:
			doc, own := corp.docs[o.doc], false
			if o.kind == opGetRecent {
				if doc = cl.takeRecent(o.r); doc != nil {
					own = true
				} else {
					doc = corp.docs[int(o.r)%len(corp.docs)]
				}
			}
			g := beforeGet(doc)
			t0 := time.Now()
			got, err := app.GetContext(ctx, doc.id)
			d = time.Since(t0)
			hash, matches := g.check(doc, got)
			ok = err == nil && matches
			if ok && own {
				// The client's own writes are sequential: exact match.
				ok = got.Version == g.ver && hash == g.hash
			}
		}
		sp.end(app, d, 0)
		return d, ok
	}
	cls := newClients(p.clients())
	var sinks *tailSinks
	var subErr error
	var tailBefore core.TailMetrics
	res := measure(ctx, p, ops, warm, limit, cls, exec, false, func() {
		// Subscribe after the warm-up has drained, so the subscribers see
		// exactly the measured pass's writes.
		app.Drain()
		for _, cl := range cls {
			cl.writes = cl.writes[:0]
		}
		tailBefore = app.Engine().TailStats()
		sinks, subErr = openTailSinks(ctx, app, p.refOps(refChurnOps))
	})
	lastAck := time.Now()
	app.Drain()
	r := newReport("churn", res)
	r.extra["drain_ms"] = float64(time.Since(lastAck).Microseconds()) / 1e3
	r.extra["ops_per_s"] = float64(r.Ops-r.Failed) / r.Seconds
	r.time("get_all", r.union(getKinds...))
	r.time("write_all", r.union(writeKinds...))
	if subErr != nil {
		fmt.Fprintf(os.Stderr, "bench: tail subscribe: %v\n", subErr)
		r.Attempted++
		r.Failed++
		return r
	}
	var writes []writeRec
	for _, cl := range cls {
		writes = append(writes, cl.writes...)
	}
	tc := sinks.finish(writes)
	tailAfter := app.Engine().TailStats()
	r.extra["tail_delivered_per_published"] = float64(tailAfter.Delivered-tailBefore.Delivered) /
		float64(tailAfter.Published-tailBefore.Published)
	r.Attempted += tc.expected
	r.Failed += tc.bad
	r.time("tail_lag", tc.lags)
	r.tailLags = tc.lags
	return r
}
