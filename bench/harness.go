package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"impliance"
	"impliance/internal/docmodel"
)

// Fixed configuration, identical for every workload (see README.md):
// everything not listed is the appliance default.
const (
	dataNodes      = 4
	gridNodes      = 2
	clusterNodes   = 1
	storageBackend = "segment"
	nClients       = 2 // closed-loop client goroutines (= nproc of the sandbox)

	// flushPolicy is the store's default, stated in the output because it
	// bounds what the write numbers mean.
	flushPolicy = "no fsync per write; sync on segment seal and on Close"

	// ceiling aborts a run whose measured part overruns; operations not
	// done by then count as failed.
	ceiling = 120 * time.Second
)

func applianceConfig(dir string) impliance.Config {
	return impliance.Config{
		DataNodes:      dataNodes,
		GridNodes:      gridNodes,
		ClusterNodes:   clusterNodes,
		Dir:            dir,
		StorageBackend: storageBackend,
	}
}

// env is one running appliance with the rows20k corpus loaded.
type env struct {
	app    *impliance.Appliance
	dir    string
	corp   *corpus
	setupS float64
}

// openRows boots an appliance in a fresh directory under outDir and loads
// the shared corpus: Open + IngestBatchContext in batches of loadBatch +
// Drain + RegisterView. That interval is setup_s.
func openRows(ctx context.Context, outDir string, seed int64, docs int) (*env, error) {
	corp, items := genCorpus(seed, docs)
	dir, err := os.MkdirTemp(outDir, "rows-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	app, err := impliance.Open(applianceConfig(dir))
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open appliance: %w", err)
	}
	e := &env{app: app, dir: dir, corp: corp}
	for at := 0; at < len(items); at += loadBatch {
		end := min(at+loadBatch, len(items))
		ids, err := app.IngestBatchContext(ctx, items[at:end])
		if err != nil {
			e.close()
			return nil, fmt.Errorf("load corpus: %w", err)
		}
		for i, id := range ids {
			corp.docs[at+i].id = id
		}
	}
	app.Drain()
	app.RegisterView(rowsViewSQL, impliance.SourceIs(rowsSource),
		map[string]string{"k": "/k", "cat": "/cat", "val": "/val"})
	e.setupS = time.Since(t0).Seconds()
	return e, nil
}

// close shuts the appliance down and removes its directory.
func (e *env) close() error {
	err := e.app.Close()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

// --- closed-loop runner ---

// client is one closed-loop goroutine's private state.
type client struct {
	n   int // client number
	lat [numOpKinds]samples
	// attempted counts operations issued, failed those that errored, were
	// refused, or whose output check missed.
	attempted, failed int

	// churn state: the last written documents not read back yet, and the
	// documents this client ingested that are still live.
	recent   []*rowDoc
	ingested []*rowDoc
	writes   []writeRec
}

// executor performs one operation for a client and reports how long the
// appliance call took and whether the output check passed.
type executor func(ctx context.Context, cl *client, o *op) (time.Duration, bool)

// loop describes one closed-loop pass over a sequence.
type loop struct {
	ops     []op
	clients int
	// from and limit bound the slice of the sequence this pass covers;
	// client c takes operations from+c, from+c+clients, ...
	from, limit int
	// deadline, when set, stops clients from starting further operations.
	deadline time.Time
	record   bool
	// lockstep makes the clients start each round of operations together
	// (see scanPhase).
	lockstep bool
}

// loopResult is what a pass did.
type loopResult struct {
	clients  []*client
	elapsed  time.Duration
	panicked bool
}

// run drives the pass and waits for every client to finish. A panic in a
// client is caught, reported, and fails the run.
func (l loop) run(ctx context.Context, cls []*client, exec executor) loopResult {
	var wg sync.WaitGroup
	var panicked atomic.Bool
	var gate *barrier
	if l.lockstep {
		gate = newBarrier(l.clients)
	}
	t0 := time.Now()
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			defer gate.leave()
			i := l.from + cl.n
			defer func() {
				if r := recover(); r != nil {
					fmt.Fprintf(os.Stderr, "bench: client %d panicked at op %d: %v\n", cl.n, i, r)
					cl.attempted++
					cl.failed++
					panicked.Store(true)
				}
			}()
			for ; i < l.limit; i += l.clients {
				if ctx.Err() != nil {
					return
				}
				if !l.deadline.IsZero() && !time.Now().Before(l.deadline) {
					return
				}
				gate.wait()
				o := &l.ops[i]
				d, ok := exec(ctx, cl, o)
				if !l.record {
					continue
				}
				cl.attempted++
				if !ok {
					cl.failed++
				}
				cl.lat[o.kind] = append(cl.lat[o.kind], int64(d))
			}
		}(cls[c])
	}
	wg.Wait()
	return loopResult{clients: cls, elapsed: time.Since(t0), panicked: panicked.Load()}
}

// barrier lets the clients of a lockstep pass start each round together.
// A nil barrier does nothing.
type barrier struct {
	mu       sync.Mutex
	released *sync.Cond
	parties  int // clients still in the pass
	waiting  int
	round    int
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.released = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) release() {
	b.waiting = 0
	b.round++
	b.released.Broadcast()
}

// wait blocks until every remaining client has arrived.
func (b *barrier) wait() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.waiting++; b.waiting >= b.parties {
		b.release()
		return
	}
	for round == b.round {
		b.released.Wait()
	}
}

// leave removes a client that has finished, releasing the others if they
// were only waiting for it.
func (b *barrier) leave() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.parties--; b.waiting > 0 && b.waiting >= b.parties {
		b.release()
	}
}

func newClients(n int) []*client {
	cls := make([]*client, n)
	for i := range cls {
		cls[i] = &client{n: i}
	}
	return cls
}

// merged concatenates the clients' samples of one kind.
func merged(cls []*client, k opKind) samples {
	var out samples
	for _, cl := range cls {
		out = append(out, cl.lat[k]...)
	}
	return out
}

func totals(cls []*client) (attempted, failed int) {
	for _, cl := range cls {
		attempted += cl.attempted
		failed += cl.failed
	}
	return
}

// --- output checks shared by serve and churn ---

// getCheck snapshots what a Get of d may legitimately return while the
// owning client may have a write in flight.
type getCheck struct {
	hash, pending uint64
	ver           uint32
}

func beforeGet(d *rowDoc) getCheck {
	return getCheck{d.hash.Load(), d.pending.Load(), d.ver.Load()}
}

// check reports whether the fetched document matches the last body
// written for that ID (or one in flight while the Get ran) at a version no
// older than the one acknowledged before the Get started; it also returns
// the fetched body's hash.
func (g getCheck) check(d *rowDoc, got *docmodel.Document) (hash uint64, ok bool) {
	if got == nil || got.ID != d.id || got.Version < g.ver {
		return 0, false
	}
	h := got.ContentHash()
	return h, h == g.hash || (g.pending != 0 && h == g.pending) ||
		h == d.hash.Load() || h == d.pending.Load()
}

// beginWrite and endWrite bracket a write by the owning client.
func (c *corpus) beginWrite(d *rowDoc, hash uint64) {
	if c != nil {
		c.touch(d)
	}
	d.pending.Store(hash)
}

func endWrite(d *rowDoc, key docmodel.VersionKey, hash uint64, err error) {
	if err == nil {
		d.hash.Store(hash)
		d.ver.Store(key.Ver)
	}
	d.pending.Store(0)
}

// --- counters the engine already exports ---

// counters is a snapshot of every exported counter the per-layer metrics
// difference.
type counters struct {
	netMsgs, netBytes            uint64
	pointHits, pointMisses       uint64
	pointInval                   uint64
	partialHits, partialMisses   uint64
	valueProbes, valuePruned     uint64
	storeScanned                 uint64
	mallocs, totalAlloc          uint64
	numGC                        uint32
	pauseTotalNs                 uint64
	tailPublished, tailDelivered uint64
	at                           time.Time
}

func snapshot(app *impliance.Appliance) counters {
	eng := app.Engine()
	var c counters
	net := eng.Fabric().NetStats()
	c.netMsgs, c.netBytes = net.Messages, net.Bytes
	cs := eng.CacheStats()
	c.pointHits, c.pointMisses, c.pointInval = cs.PointHits, cs.PointMisses, cs.PointInvalidations
	c.partialHits, c.partialMisses = cs.PartialHits, cs.PartialMisses
	_, c.valueProbes, c.valuePruned, _ = eng.ValueProbeStats()
	for i := 0; i < dataNodes; i++ {
		_, _, scanned, _, _ := eng.DataStoreStats(i)
		c.storeScanned += scanned
	}
	ts := eng.TailStats()
	c.tailPublished, c.tailDelivered = ts.Published, ts.Delivered
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.totalAlloc = ms.Mallocs, ms.TotalAlloc
	c.numGC, c.pauseTotalNs = ms.NumGC, ms.PauseTotalNs
	c.at = time.Now()
	return c
}

// since renders the counter movement from an earlier snapshot as the
// ratios and per-second rates the report shows.
func (c counters) since(b counters) map[string]float64 {
	secs := c.at.Sub(b.at).Seconds()
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	hits, misses := c.pointHits-b.pointHits, c.pointMisses-b.pointMisses
	phits, pmisses := c.partialHits-b.partialHits, c.partialMisses-b.partialMisses
	probes, pruned := c.valueProbes-b.valueProbes, c.valuePruned-b.valuePruned
	return map[string]float64{
		"net_msgs":                  float64(c.netMsgs - b.netMsgs),
		"net_bytes":                 float64(c.netBytes - b.netBytes),
		"point_hit_rate":            ratio(hits, hits+misses),
		"point_invalidations":       float64(c.pointInval - b.pointInval),
		"partial_hit_rate":          ratio(phits, phits+pmisses),
		"value_probes_pruned_share": ratio(pruned, probes+pruned),
		"store_docs_scanned":        float64(c.storeScanned - b.storeScanned),
		"alloc_bytes":               float64(c.totalAlloc - b.totalAlloc),
		"mallocs":                   float64(c.mallocs - b.mallocs),
		"gc_cycles_per_s":           float64(c.numGC-b.numGC) / secs,
		"gc_pause_ms_per_s":         float64(c.pauseTotalNs-b.pauseTotalNs) / 1e6 / secs,
		"tail_published":            float64(c.tailPublished - b.tailPublished),
		"tail_delivered":            float64(c.tailDelivered - b.tailDelivered),
	}
}
