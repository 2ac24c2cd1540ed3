// Package sched implements Impliance's execution management: assigning
// operators to node kinds and interleaving long-running background
// analysis with latency-sensitive interactive queries.
//
// Placement follows paper §3.3: "the scheduler assigns operators to
// compute nodes based on which operators execute more efficiently — or
// with greater scalability — on a particular node type"; because the
// appliance knows its own operators and nodes, the mapping is static
// knowledge, not a tuning knob. Interleaving follows §3.4: "scheduling
// prioritized tasks, i.e., managing queues of long-running analysis tasks
// and properly interleaving these analysis tasks with the execution of
// queries with more stringent response-time requirements."
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"impliance/internal/fabric"
)

// TaskKind classifies the work being placed.
type TaskKind uint8

// Task kinds the appliance schedules.
const (
	TaskScan          TaskKind = iota // storage-local scans and index probes
	TaskIndexSearch                   // full-text / value index search
	TaskIntraAnalysis                 // per-document annotators
	TaskJoin                          // joins
	TaskSort                          // sorts
	TaskAgg                           // aggregation merge phases
	TaskInterAnalysis                 // cross-document discovery
	TaskPersist                       // persisting discovered structures
	TaskCoordinate                    // locking / consistency decisions
)

var taskNames = [...]string{
	"scan", "index-search", "intra-analysis", "join", "sort", "agg",
	"inter-analysis", "persist", "coordinate",
}

// String names the task kind.
func (k TaskKind) String() string {
	if int(k) < len(taskNames) {
		return taskNames[k]
	}
	return "task?"
}

// PreferredNodeKind returns the node flavor each task kind runs best on —
// the affinity table of paper §3.3's example query flow (index search on
// data nodes → join/sort/aggregate on grid nodes → consistent updates on
// cluster nodes).
func PreferredNodeKind(k TaskKind) fabric.NodeKind {
	switch k {
	case TaskScan, TaskIndexSearch, TaskIntraAnalysis:
		return fabric.Data
	case TaskJoin, TaskSort, TaskAgg, TaskInterAnalysis:
		return fabric.Grid
	case TaskPersist, TaskCoordinate:
		return fabric.Cluster
	default:
		return fabric.Grid
	}
}

// ErrNoNodes is returned when no alive node can host a task.
var ErrNoNodes = errors.New("sched: no alive nodes")

// Clock abstracts the scheduler's time source. The wall clock is the
// default; the deterministic simulator (fabric/sim) provides a virtual
// clock so simulated runs mint reproducible timestamps and measure
// queue waits in virtual time.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// RealClock returns the wall-clock time source.
func RealClock() Clock { return realClock{} }

// Placer chooses a node for a task.
type Placer interface {
	Place(k TaskKind) (fabric.NodeID, error)
}

// DataRouter is the scheduler's view of the storage partition ring: the
// data node that owns a routing key. The virtualization layer's partition
// map implements it, so placers can co-locate document-keyed work
// (storage-local scans, index probes, per-document annotators) with the
// document's partition instead of spraying it across the kind.
type DataRouter interface {
	OwnerForKey(key uint64) (fabric.NodeID, bool)
}

// KeyedPlacer extends Placer with data-affine placement for work that is
// keyed to a document or partition.
type KeyedPlacer interface {
	Placer
	PlaceKeyed(k TaskKind, key uint64) (fabric.NodeID, error)
}

// AffinityPlacer places tasks on their preferred node kind, round-robin
// over alive nodes, falling back to any alive node when the preferred
// kind has none (paper §3.3: "for better resource utilization, each
// operation could be executed on any of the node types").
type AffinityPlacer struct {
	f  fabric.Transport
	mu sync.Mutex
	rr map[fabric.NodeKind]int
	// router, when set, routes storage-local keyed tasks to the data node
	// owning the key's partition.
	router DataRouter
	// Fallbacks counts placements that missed their preferred kind.
	Fallbacks atomic.Uint64
}

// NewAffinityPlacer creates the placer over a transport.
func NewAffinityPlacer(f fabric.Transport) *AffinityPlacer {
	return &AffinityPlacer{f: f, rr: map[fabric.NodeKind]int{}}
}

// SetRouter installs the partition ring consulted by PlaceKeyed.
func (p *AffinityPlacer) SetRouter(r DataRouter) {
	p.mu.Lock()
	p.router = r
	p.mu.Unlock()
}

// PlaceKeyed implements KeyedPlacer: storage-local task kinds go to the
// alive data node owning the key's partition; everything else (and any
// miss) falls back to kind-affine placement.
func (p *AffinityPlacer) PlaceKeyed(k TaskKind, key uint64) (fabric.NodeID, error) {
	if PreferredNodeKind(k) == fabric.Data {
		p.mu.Lock()
		r := p.router
		p.mu.Unlock()
		if r != nil {
			if id, ok := r.OwnerForKey(key); ok {
				if n, up := p.f.Node(id); up && n.Alive() {
					return id, nil
				}
			}
		}
	}
	return p.Place(k)
}

// Place implements Placer.
func (p *AffinityPlacer) Place(k TaskKind) (fabric.NodeID, error) {
	pref := PreferredNodeKind(k)
	if id, ok := p.pick(pref); ok {
		return id, nil
	}
	p.Fallbacks.Add(1)
	for _, kind := range []fabric.NodeKind{fabric.Grid, fabric.Data, fabric.Cluster} {
		if kind == pref {
			continue
		}
		if id, ok := p.pick(kind); ok {
			return id, nil
		}
	}
	return fabric.NodeID{}, ErrNoNodes
}

func (p *AffinityPlacer) pick(kind fabric.NodeKind) (fabric.NodeID, bool) {
	alive := p.f.AliveOf(kind)
	if len(alive) == 0 {
		return fabric.NodeID{}, false
	}
	p.mu.Lock()
	i := p.rr[kind] % len(alive)
	p.rr[kind]++
	p.mu.Unlock()
	return alive[i], true
}

// RandomPlacer ignores affinity entirely — the E5 ablation: operators land
// on uniformly random alive nodes.
type RandomPlacer struct {
	f   fabric.Transport
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandomPlacer creates the ablation placer with a deterministic seed.
func NewRandomPlacer(f fabric.Transport, seed int64) *RandomPlacer {
	return &RandomPlacer{f: f, rng: rand.New(rand.NewSource(seed))}
}

// PlaceKeyed implements KeyedPlacer. The ablation ignores the ring the
// same way it ignores kind affinity.
func (p *RandomPlacer) PlaceKeyed(k TaskKind, _ uint64) (fabric.NodeID, error) { return p.Place(k) }

// Place implements Placer.
func (p *RandomPlacer) Place(TaskKind) (fabric.NodeID, error) {
	var all []fabric.NodeID
	for _, kind := range []fabric.NodeKind{fabric.Data, fabric.Grid, fabric.Cluster} {
		all = append(all, p.f.AliveOf(kind)...)
	}
	if len(all) == 0 {
		return fabric.NodeID{}, ErrNoNodes
	}
	p.mu.Lock()
	id := all[p.rng.Intn(len(all))]
	p.mu.Unlock()
	return id, nil
}

// Class is the SLO class of submitted pool work. It separates
// latency-sensitive query work (Interactive) from deferrable analysis
// (Background) and from work whose loss would violate the appliance's
// write guarantees (Durability: replication, catch-up, repair).
type Class uint8

// SLO classes.
const (
	Interactive Class = iota
	Background
	Durability

	// NumClasses sizes per-class arrays.
	NumClasses = 3
)

// Priority is the pre-class name for Class, kept for older call sites.
type Priority = Class

var classNames = [NumClasses]string{"interactive", "background", "durability"}

// String names the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// Classes lists every class in scheduling order (metrics iteration).
func Classes() [NumClasses]Class { return [NumClasses]Class{Interactive, Background, Durability} }

// Weights are the deficit-round-robin quanta, in tasks per rotation,
// indexed by Class. A class with backlog is guaranteed its quantum out
// of every rotation's total, so no class can be starved and no class
// can claim more than its share while others have work waiting.
type Weights [NumClasses]int

// DefaultWeights is the appliance policy: interactive work dominates a
// contended pool without monopolizing it, durability work (replication,
// catch-up) outranks deferrable analysis, and background analysis is
// guaranteed forward progress.
func DefaultWeights() Weights {
	return Weights{Interactive: 16, Background: 1, Durability: 4}
}

func (w Weights) normalized() Weights {
	d := DefaultWeights()
	for c := range w {
		if w[c] <= 0 {
			w[c] = d[c]
		}
	}
	return w
}

// Pool errors.
var (
	// ErrPoolClosed is returned for submissions after Close.
	ErrPoolClosed = errors.New("sched: pool closed")
	// ErrQueueFull is returned when a class queue is saturated — the
	// caller (or the admission layer above it) distinguishes "shed by
	// policy" (ErrShed, ErrOverloaded) from "queue saturated".
	ErrQueueFull = errors.New("sched: queue full")
	// ErrShed is returned/reported when a task is dropped because its
	// caller's ctx was already dead — at submit time or at dequeue.
	ErrShed = errors.New("sched: task shed")
)

// QueueStats reports accounting for one SLO class.
type QueueStats struct {
	Tasks     uint64 // tasks executed
	TotalWait time.Duration
	MaxWait   time.Duration

	// Shed accounting: tasks dropped because the caller's ctx was dead
	// at submit time / at dequeue, and tasks rejected because the class
	// queue was full.
	ShedAtSubmit  uint64
	ShedAtDequeue uint64
	RejectedFull  uint64

	// Depth is the instantaneous queued-but-unstarted count.
	Depth int

	// Wait-time distribution of executed tasks (log-bucketed histogram
	// upper bounds, resolution 2×).
	WaitP50 time.Duration
	WaitP99 time.Duration
}

// MeanWait returns the average queue wait.
func (qs QueueStats) MeanWait() time.Duration {
	if qs.Tasks == 0 {
		return 0
	}
	return qs.TotalWait / time.Duration(qs.Tasks)
}

// waitHist is a log-bucketed wait-time histogram: bucket i counts waits
// in [2^(i-1), 2^i) microseconds (bucket 0 is <1µs).
type waitHist struct {
	buckets [40]uint64
	count   uint64
}

func (h *waitHist) observe(d time.Duration) {
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us) // 0 for 0µs
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.count++
}

// quantile returns the upper bound of the bucket holding the q-th
// sample (2^i µs), 0 when empty.
func (h *waitHist) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return time.Microsecond
			}
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return 0
}

// Task is one unit of pool work.
type Task struct {
	// Class is the task's SLO class (default Interactive — the zero
	// value fails safe toward latency, not loss).
	Class Class
	// Run executes the work.
	Run func()
	// Ctx, when set, is the caller's request lifecycle: a task whose
	// ctx is already dead is rejected at submit time and shed (counted,
	// not executed) at dequeue. Durability tasks ignore it — work the
	// write path promised must run even after the caller gave up.
	Ctx context.Context
	// OnShed, when set, is invoked instead of Run if the task is shed
	// at dequeue, so producers (streaming cursors) can settle their
	// consumers. It is not called for submit-time rejections — the
	// submitter already has the error in hand.
	OnShed func(error)
}

type poolTask struct {
	fn       func()
	class    Class
	ctx      context.Context
	onShed   func(error)
	enqueued time.Time
	done     chan time.Duration // closed after run; receives queue wait
}

// PoolConfig sizes a pool beyond the NewPool defaults.
type PoolConfig struct {
	Workers int
	// FIFO disables class scheduling: one shared queue (E11/E25
	// ablation).
	FIFO bool
	// Weights overrides the per-class DRR quanta (zero entries take
	// defaults).
	Weights Weights
	// QueueCap overrides per-class queue capacities (zero entries take
	// defaults: 4096 interactive, 65536 background/durability).
	QueueCap [NumClasses]int
}

// Pool executes submitted tasks on a fixed worker set. In class mode
// (the Impliance design) workers pick the next task by weighted deficit
// round-robin across SLO classes — preemption happens at task
// boundaries, so a background flood cannot hold workers once its
// quantum is spent. In FIFO mode (the ablation) all tasks share one
// queue.
type Pool struct {
	fifo    bool
	workers int
	clock   Clock

	queues [NumClasses]chan poolTask
	single chan poolTask
	quit   chan struct{}
	wg     sync.WaitGroup

	// DRR state: cur is the class currently spending its quantum;
	// credits[cur] is what remains of it. Rotating to a class refills
	// its quantum.
	schedMu sync.Mutex
	weights Weights
	credits [NumClasses]int
	cur     Class

	depth [NumClasses]atomic.Int64

	mu     sync.Mutex
	stats  [NumClasses]*QueueStats
	hists  [NumClasses]*waitHist
	closed bool

	drainMu sync.Mutex // serializes Drain barriers (two batches would interleave and park all workers)

	// Pause gate (see Pause): workers hold here between tasks while a
	// deterministic driver acts alone.
	pauseMu   sync.Mutex
	paused    bool
	pauseCond *sync.Cond
}

// NewPool starts workers with default queue sizing and weights.
// fifo=true disables class scheduling.
func NewPool(workers int, fifo bool) *Pool {
	return NewPoolConfig(PoolConfig{Workers: workers, FIFO: fifo})
}

// NewPoolConfig starts workers with explicit sizing.
func NewPoolConfig(cfg PoolConfig) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	caps := cfg.QueueCap
	defCaps := [NumClasses]int{Interactive: 4096, Background: 65536, Durability: 65536}
	for c := range caps {
		if caps[c] <= 0 {
			caps[c] = defCaps[c]
		}
	}
	p := &Pool{
		fifo:    cfg.FIFO,
		workers: cfg.Workers,
		clock:   realClock{},
		single:  make(chan poolTask, 65536),
		quit:    make(chan struct{}),
		weights: cfg.Weights.normalized(),
	}
	for c := range p.queues {
		p.queues[c] = make(chan poolTask, caps[c])
		p.stats[c] = &QueueStats{}
		p.hists[c] = &waitHist{}
	}
	p.cur = Interactive
	p.credits[Interactive] = p.weights[Interactive]
	p.pauseCond = sync.NewCond(&p.pauseMu)
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Pause holds workers between tasks: any task already running finishes,
// and a task taken from a queue after Pause — including by a worker that
// was idle, waiting for work, when Pause was called — waits at the gate
// until Resume before it runs. Deterministic simulation drivers
// use the gate to act alone — membership ticks and scripted faults must
// not interleave with background catch-up work, or the virtual-time
// schedule stops being a pure function of the seed. Pair every Pause
// with a Resume before any Drain or Close.
func (p *Pool) Pause() {
	p.pauseMu.Lock()
	p.paused = true
	p.pauseMu.Unlock()
}

// Resume releases workers held by Pause.
func (p *Pool) Resume() {
	p.pauseMu.Lock()
	p.paused = false
	p.pauseMu.Unlock()
	p.pauseCond.Broadcast()
}

// gateWait blocks while the pool is paused; Close lifts the gate so a
// racing shutdown cannot strand workers.
func (p *Pool) gateWait() {
	p.pauseMu.Lock()
	for p.paused {
		p.pauseCond.Wait()
	}
	p.pauseMu.Unlock()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		t, ok := p.take()
		if !ok {
			return
		}
		// Gate after take: an idle worker blocks inside take, so a gate
		// checked before it would let a task submitted during a pause run.
		p.gateWait()
		p.run(t)
	}
}

// take returns the next task under the scheduling policy, blocking
// until one arrives or the pool quits.
func (p *Pool) take() (poolTask, bool) {
	if p.fifo {
		select {
		case t := <-p.single:
			return t, true
		case <-p.quit:
			return poolTask{}, false
		}
	}
	for {
		if t, ok := p.pickWeighted(); ok {
			return t, true
		}
		// Every queue was empty at scan time: block until anything
		// arrives, charging whichever class it belongs to.
		select {
		case t := <-p.queues[Interactive]:
			p.charge(Interactive)
			return t, true
		case t := <-p.queues[Background]:
			p.charge(Background)
			return t, true
		case t := <-p.queues[Durability]:
			p.charge(Durability)
			return t, true
		case <-p.quit:
			return poolTask{}, false
		}
	}
}

// pickWeighted is one deficit-round-robin scheduling decision: serve
// the current class while its quantum lasts and its queue has work;
// rotating to the next class refills that class's quantum. At most one
// full rotation — if every queue is empty the caller blocks instead of
// spinning.
func (p *Pool) pickWeighted() (poolTask, bool) {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	for i := 0; i < NumClasses; i++ {
		c := p.cur
		if p.credits[c] > 0 {
			select {
			case t := <-p.queues[c]:
				p.credits[c]--
				return t, true
			default:
			}
		}
		p.cur = (p.cur + 1) % NumClasses
		p.credits[p.cur] = p.weights[p.cur]
	}
	return poolTask{}, false
}

// charge decrements a class's quantum for a task taken on the blocking
// path (queues were empty; the select picked the arrival directly).
func (p *Pool) charge(c Class) {
	p.schedMu.Lock()
	if p.cur == c && p.credits[c] > 0 {
		p.credits[c]--
	}
	p.schedMu.Unlock()
}

// SetClock replaces the pool's time source for queue-wait accounting.
// Call it before submitting work (the simulator installs its virtual
// clock right after constructing the pool).
func (p *Pool) SetClock(c Clock) {
	p.mu.Lock()
	if c != nil {
		p.clock = c
	}
	p.mu.Unlock()
}

func (p *Pool) now() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clock.Now()
}

func (p *Pool) run(t poolTask) {
	wait := p.now().Sub(t.enqueued)
	if wait < 0 {
		wait = 0
	}
	p.depth[t.class].Add(-1)
	// Deadline shedding: a queued task whose caller already gave up is
	// dropped, not executed — except durability work, which the write
	// path promised regardless of any caller's lifetime.
	if t.ctx != nil && t.class != Durability && t.ctx.Err() != nil {
		p.mu.Lock()
		p.stats[t.class].ShedAtDequeue++
		p.mu.Unlock()
		if t.onShed != nil {
			t.onShed(fmt.Errorf("%w at dequeue: %w", ErrShed, t.ctx.Err()))
		}
		if t.done != nil {
			t.done <- wait
			close(t.done)
		}
		return
	}
	p.mu.Lock()
	st := p.stats[t.class]
	st.Tasks++
	st.TotalWait += wait
	if wait > st.MaxWait {
		st.MaxWait = wait
	}
	p.hists[t.class].observe(wait)
	p.mu.Unlock()
	t.fn()
	if t.done != nil {
		t.done <- wait
		close(t.done)
	}
}

// Submit enqueues a task with the legacy blocking semantics: a full
// class queue applies backpressure to the submitter instead of
// rejecting. It returns false if the pool is closed. New overload-aware
// callers use Enqueue, which rejects with typed errors instead.
func (p *Pool) Submit(c Class, fn func()) bool {
	return p.submit(poolTask{fn: fn, class: c, enqueued: p.now()}, true) == nil
}

// SubmitWait enqueues a task, blocks until it has run, and returns the
// time it spent queued (the latency experiments' measurement).
func (p *Pool) SubmitWait(c Class, fn func()) (time.Duration, error) {
	done := make(chan time.Duration, 1)
	if err := p.submit(poolTask{fn: fn, class: c, enqueued: p.now(), done: done}, true); err != nil {
		return 0, err
	}
	return <-done, nil
}

// Enqueue submits a Task under the overload policy:
//
//   - A dead Ctx rejects at submit time with ErrShed (cheap check — no
//     queue slot, no worker) unless the class is Durability.
//   - A full Interactive or Background queue rejects with ErrQueueFull
//     so callers can tell saturation from policy shedding. Durability
//     submissions block instead: backpressure, never loss.
//   - After Close every submission returns ErrPoolClosed.
func (p *Pool) Enqueue(t Task) error {
	if t.Ctx != nil && t.Class != Durability {
		if err := t.Ctx.Err(); err != nil {
			p.mu.Lock()
			p.stats[t.Class].ShedAtSubmit++
			p.mu.Unlock()
			return fmt.Errorf("%w at submit: %w", ErrShed, err)
		}
	}
	return p.submit(poolTask{
		fn:       t.Run,
		class:    t.Class,
		ctx:      t.Ctx,
		onShed:   t.OnShed,
		enqueued: p.now(),
	}, t.Class == Durability)
}

// SubmitCtx enqueues fn under class c bound to the caller's ctx — the
// Enqueue policy without shed notification.
func (p *Pool) SubmitCtx(ctx context.Context, c Class, fn func()) error {
	return p.Enqueue(Task{Class: c, Ctx: ctx, Run: fn})
}

func (p *Pool) submit(t poolTask, block bool) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.mu.Unlock()
	q := p.queues[t.class]
	if p.fifo {
		q = p.single
	}
	if block {
		select {
		case q <- t:
			p.depth[t.class].Add(1)
			return nil
		case <-p.quit:
			return ErrPoolClosed
		}
	}
	select {
	case q <- t:
		p.depth[t.class].Add(1)
		return nil
	case <-p.quit:
		return ErrPoolClosed
	default:
		p.mu.Lock()
		p.stats[t.class].RejectedFull++
		p.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrQueueFull, t.class)
	}
}

// Stats snapshots one class's queue accounting.
func (p *Pool) Stats(c Class) QueueStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statsLocked(c)
}

func (p *Pool) statsLocked(c Class) QueueStats {
	st := *p.stats[c]
	st.Depth = int(p.depth[c].Load())
	st.WaitP50 = p.hists[c].quantile(0.50)
	st.WaitP99 = p.hists[c].quantile(0.99)
	return st
}

// StatsAll snapshots every class at once, indexed by Class.
func (p *Pool) StatsAll() [NumClasses]QueueStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out [NumClasses]QueueStats
	for c := range out {
		out[c] = p.statsLocked(Class(c))
	}
	return out
}

// Backlog returns the number of queued-but-unstarted tasks.
func (p *Pool) Backlog() int {
	if p.fifo {
		return len(p.single)
	}
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}

// Drain blocks until all queued tasks at the time of the call have
// started and finished. Queued==0 does not mean running==0, so it then
// parks one barrier sentinel on every worker: once all sentinels have
// arrived, every previously started task has finished. The rendezvous
// aborts on Close (quit), so a racing shutdown can neither strand parked
// workers nor hang this call. It is a test/experiment convenience, not a
// production barrier.
func (p *Pool) Drain() {
	p.drainMu.Lock()
	defer p.drainMu.Unlock()
	for p.Backlog() > 0 {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return // queued tasks are abandoned at Close; nothing to fence
		}
		time.Sleep(time.Millisecond)
	}
	arrived := make(chan struct{}, p.workers)
	release := make(chan struct{})
	pending := 0
	for i := 0; i < p.workers; i++ {
		ok := p.Submit(Background, func() {
			arrived <- struct{}{}
			select {
			case <-release:
			case <-p.quit:
			}
		})
		if ok {
			pending++
		}
	}
	for got := 0; got < pending; got++ {
		select {
		case <-arrived:
		case <-p.quit: // shutdown: queued sentinels may never run
			close(release)
			return
		}
	}
	close(release)
}

// Close stops the workers after the current tasks finish. Queued tasks
// are abandoned.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.quit)
	p.Resume() // lift a standing pause so workers can observe quit
	p.wg.Wait()
}
