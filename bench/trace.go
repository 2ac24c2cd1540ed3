package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"impliance"
)

// Tracing lives entirely in the harness: spans are recorded around the
// calls into each layer, never inside the program (that is ROADMAP item
// 4). A traced run has one client, so the tracer needs no locking, and it
// drains the appliance after every write so that a counter delta belongs
// to the operation that caused it and counts repeat exactly.

// spanRec is one finished span. Spans of one operation share Op; Parent is
// the ID of the span that caused this one (0 for a root).
type spanRec struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// opCounters are the counters differenced at every facade call.
type opCounters struct {
	netMsgs, netBytes  uint64
	pointHits          uint64
	storeScanned       uint64
	allocs, allocBytes uint64
}

func (a opCounters) sub(b opCounters) opCounters {
	return opCounters{a.netMsgs - b.netMsgs, a.netBytes - b.netBytes, a.pointHits - b.pointHits,
		a.storeScanned - b.storeScanned, a.allocs - b.allocs, a.allocBytes - b.allocBytes}
}

func (a *opCounters) add(b opCounters) {
	a.netMsgs += b.netMsgs
	a.netBytes += b.netBytes
	a.pointHits += b.pointHits
	a.storeScanned += b.storeScanned
	a.allocs += b.allocs
	a.allocBytes += b.allocBytes
}

// allocSamples reads the allocation counters without stopping the world.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readOpCounters(app *impliance.Appliance) opCounters {
	eng := app.Engine()
	net := eng.Fabric().NetStats()
	c := opCounters{netMsgs: net.Messages, netBytes: net.Bytes, pointHits: eng.CacheStats().PointHits}
	for i := 0; i < dataNodes; i++ {
		_, _, scanned, _, _ := eng.DataStoreStats(i)
		c.storeScanned += scanned
	}
	metrics.Read(allocSamples)
	c.allocs, c.allocBytes = allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
	return c
}

// opTotals accumulates one span name's whole-op durations and counter deltas.
type opTotals struct {
	dur  samples
	sum  opCounters
	rows int
}

// tracer records spans and per-name aggregates. A nil *tracer is tracing
// off: begin returns nil and a nil span's end does nothing.
type tracer struct {
	t0     time.Time
	phase  string
	spans  []spanRec
	nextID int
	nextOp int
	agg    map[string]*opTotals

	// Tracing overhead: operations alternate in blocks between traced and
	// bare (timed only); the two sets of whole-op durations are compared.
	seen      int
	bare      map[opKind]samples
	tracedDur map[opKind]samples
}

// overheadBlock is the length of the alternating traced/bare blocks.
const overheadBlock = 100

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[string]*opTotals{}, bare: map[opKind]samples{}, tracedDur: map[opKind]samples{}}
}

// setPhase names the phase the following spans belong to.
func (t *tracer) setPhase(name string) {
	if t != nil {
		t.phase = name
	}
}

// span is an operation in flight.
type span struct {
	t      *tracer
	kind   opKind
	before opCounters
	start  time.Time
	bare   bool
}

func (t *tracer) begin(app *impliance.Appliance, o *op) *span {
	if t == nil {
		return nil
	}
	t.seen++
	sp := &span{t: t, kind: o.kind, bare: (t.seen/overheadBlock)%2 == 1}
	if !sp.bare {
		sp.before = readOpCounters(app)
	}
	sp.start = time.Now()
	return sp
}

// end closes the span: d is the facade call's measured duration, rows the
// rows it returned (scans).
func (sp *span) end(app *impliance.Appliance, d time.Duration, rows int) {
	if sp == nil {
		return
	}
	t := sp.t
	if sp.kind.isWrite() {
		// Let replication, indexing and annotation of this write finish, so
		// their messages and allocations are charged to it.
		app.Drain()
	}
	if sp.bare {
		t.bare[sp.kind] = append(t.bare[sp.kind], int64(d))
		return
	}
	delta := readOpCounters(app).sub(sp.before)
	t.tracedDur[sp.kind] = append(t.tracedDur[sp.kind], int64(d))
	name := sp.kind.String()
	if sp.kind.isGet() {
		// Which path a Get took shows in the point cache's hit counter.
		if delta.pointHits > 0 {
			name += "_hit"
		} else {
			name += "_miss"
		}
	}
	name = t.phase + "." + name
	a := t.agg[name]
	if a == nil {
		a = &opTotals{}
		t.agg[name] = a
	}
	a.dur = append(a.dur, int64(d))
	a.sum.add(delta)
	a.rows += rows
	t.nextOp++
	start := sp.start.Sub(t.t0).Nanoseconds()
	t.add(0, t.nextOp, "core."+name, start, start+int64(d), map[string]float64{
		"net_msgs": float64(delta.netMsgs), "net_bytes": float64(delta.netBytes),
		"allocs": float64(delta.allocs), "alloc_bytes": float64(delta.allocBytes),
		"store_scanned": float64(delta.storeScanned), "rows": float64(rows),
	})
}

// add appends a span and returns its ID.
func (t *tracer) add(parent, opID int, name string, startNs, endNs int64, counts map[string]float64) int {
	t.nextID++
	t.spans = append(t.spans, spanRec{ID: t.nextID, Parent: parent, Op: opID, Name: name,
		StartNs: startNs, EndNs: endNs, Counts: counts})
	return t.nextID
}

// overheadPct compares whole-op medians of traced and bare blocks over
// every kind with enough samples on both sides, and returns the median
// relative difference in percent.
func (t *tracer) overheadPct() float64 {
	var pcts []float64
	for k, bare := range t.bare {
		traced := t.tracedDur[k]
		if len(bare) < 30 || len(traced) < 30 {
			continue
		}
		b, tr := quantile(bare.sorted(), 0.5), quantile(traced.sorted(), 0.5)
		pcts = append(pcts, 100*(tr-b)/b)
	}
	return medianF(pcts)
}

// selfTimes computes each span's self time: its duration minus the part
// of its interval its children cover (children may overlap each other).
func selfTimes(spans []spanRec) map[int]int64 {
	kids := map[int][]spanRec{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].StartNs < ch[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, c := range ch {
			lo, hi := max(c.StartNs, reach), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// write stores the spans as one JSON file.
func (t *tracer) write(outDir, workload string) (string, error) {
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Spans    []spanRec `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
