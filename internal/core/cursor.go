package core

import (
	"context"
	"errors"
	"sync"

	"impliance/internal/docmodel"
	"impliance/internal/exec"
	"impliance/internal/expr"
	"impliance/internal/plan"
	"impliance/internal/sched"
)

// Streaming structured queries. RunContext materializes a full result
// slice before the caller sees row one; for large scans that is both a
// memory bill (the whole matching set lives on the engine's heap) and a
// latency bill (time-to-first-row is the full gather). RunStream
// instead returns a Cursor fed by a bounded channel: rows are delivered
// as per-partition partial results arrive, the buffer is the
// backpressure bound (a slow consumer stalls the producer, not the
// heap), and closing the cursor cancels the fan-out — remaining node
// calls are abandoned and un-dispatched ones never sent.

// streamBuffer is the cursor's row buffer — the backpressure bound
// between the scatter-gather producer and the consumer.
const streamBuffer = 64

// streamInFlight bounds how many node scans a streaming query keeps in
// flight at once. Small on purpose: time-to-first-row needs only the
// first reply, and a cancelled or limit-satisfied cursor should have
// paid for a window of calls, not the whole ring.
const streamInFlight = 2

// Cursor streams the rows of one structured query.
//
//	cur, err := eng.RunStream(ctx, q)
//	...
//	defer cur.Close()
//	for cur.Next() {
//	    use(cur.Row())
//	}
//	err = cur.Err()
//
// Next/Row/Err/Close may be used from one consumer goroutine; Close is
// additionally safe to call concurrently with Next (and more than
// once). Rows from a streaming scan arrive in per-partition arrival
// order, not global ID order — ordering, grouping, and joining queries
// stream their operator output instead (materialized internally, then
// delivered incrementally).
type Cursor struct {
	rows   chan *exec.Row
	cancel context.CancelFunc
	done   chan struct{} // closed when the producer has fully exited
	plan   *plan.Plan

	cur *exec.Row // consumer-side current row

	mu     sync.Mutex
	err    error
	closed bool
}

func newCursor(p *plan.Plan, cancel context.CancelFunc) *Cursor {
	return &Cursor{
		rows:   make(chan *exec.Row, streamBuffer),
		cancel: cancel,
		done:   make(chan struct{}),
		plan:   p,
	}
}

// Next advances to the next row, blocking until one is available or the
// stream ends. It returns false at end of stream — check Err to
// distinguish completion from failure.
func (c *Cursor) Next() bool {
	row, ok := <-c.rows
	if !ok {
		c.cur = nil
		return false
	}
	c.cur = row
	return true
}

// Row returns the row Next advanced to (nil before the first Next and
// after the stream ends).
func (c *Cursor) Row() *exec.Row { return c.cur }

// Err returns the terminal error, if any. Cancellation caused by Close
// is a normal end of stream, not an error.
func (c *Cursor) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Plan returns the plan the stream executes (EXPLAIN for cursors).
func (c *Cursor) Plan() *plan.Plan { return c.plan }

// Close cancels the stream: the producer's context is cancelled, so
// in-flight node calls are abandoned and no new partition work is
// scheduled. Close drains undelivered rows, waits for the producer to
// exit, and is idempotent.
func (c *Cursor) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	if !already {
		// Wake a producer blocked on a full buffer and discard what it
		// already queued; the channel close below ends the drain.
		for range c.rows {
		}
	}
	<-c.done
	return c.Err()
}

// fail records the stream's terminal error. Context errors after Close
// are the cursor's own cancellation echoing back — a normal shutdown.
func (c *Cursor) fail(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return
	}
	if c.err == nil {
		c.err = err
	}
}

// emit delivers one row, blocking on the backpressure bound; false
// means the stream was cancelled and the producer should stop.
func (c *Cursor) emit(ctx context.Context, row *exec.Row) bool {
	select {
	case c.rows <- row:
		return true
	case <-ctx.Done():
		return false
	}
}

// finish is the producer's epilogue: record the error, end the stream,
// and cancel the request context so any stragglers (abandoned calls
// still draining into their buffered reply channels) unwind promptly.
func (c *Cursor) finish(err error) {
	c.fail(err)
	c.cancel()
	close(c.rows)
	close(c.done)
}

// RunStream plans a logical query and executes it as a stream. The
// returned cursor must be closed. Scan-shaped queries (scan access, no
// join/group/order) stream for real: each data node's partial result is
// delivered as it arrives, so time-to-first-row tracks the first
// node's scan rather than the full gather, and WithLimit stops the
// remaining fan-out once satisfied. Other shapes execute through the
// materializing pipeline and deliver its rows incrementally, keeping
// one API for every query.
//
// The producer runs as interactive work on the execution pool, so
// streaming queries interleave with (and take priority over)
// background analysis exactly like materialized ones; cancellation
// frees the pool worker along with the fan-out.
func (e *Engine) RunStream(ctx context.Context, q plan.Query, opts ...CallOption) (*Cursor, error) {
	ctx, optCancel, o := resolveOpts(ctx, opts)
	// Fast-reject before planning or pool dispatch.
	if err := e.admitOp(sched.Interactive, o.tenant); err != nil {
		optCancel()
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	cancelAll := func() { cancel(); optCancel() }

	// Fold WithLimit into the query's K before planning (same clamp as
	// RunContext), so limited non-streamable shapes plan and hydrate a
	// K-bounded result instead of materializing everything and
	// discarding past the limit at emit time.
	if o.limit > 0 && (q.K == 0 || o.limit < q.K) {
		q.K = o.limit
	}
	if q.Filter.IsTrue() {
		q.Filter = expr.True()
	}
	p := e.planFor(q)
	c := newCursor(p, cancelAll)
	limit := q.K

	streamable := p.Access.Kind == plan.AccessScan &&
		p.Join == plan.JoinNone && p.GroupBy == nil && p.OrderBy == nil

	work := func() {
		if streamable {
			// The pushed-down filter is dispatched a bounded window of
			// nodes (streamInFlight) at a time and each node's matching
			// rows are delivered page by page as they arrive —
			// time-to-first-row waits on no node's full partial. A
			// satisfied limit stops scheduling the rest of the ring.
			emitted := 0
			c.finish(e.scanPartitions(sctx, p.Residual, streamInFlight, func(page []*docmodel.Document) bool {
				for _, d := range page {
					if !c.emit(sctx, &exec.Row{Docs: []*docmodel.Document{d}}) {
						return false
					}
					emitted++
					if limit > 0 && emitted >= limit {
						return false
					}
				}
				return true
			}))
			return
		}
		rows, err := e.execute(sctx, p, q, o)
		if err != nil {
			c.finish(err)
			return
		}
		var streamErr error
		for i, row := range rows {
			if limit > 0 && i >= limit {
				break
			}
			if !c.emit(sctx, row) {
				// Truncated by cancellation/deadline, not a completed
				// stream; fail() suppresses the echo of the cursor's own
				// Close, so only a real deadline/caller cancel surfaces.
				streamErr = sctx.Err()
				break
			}
		}
		c.finish(streamErr)
	}
	// The producer carries the stream's ctx: if the caller's deadline
	// dies while the task is still queued, the pool sheds it (counted,
	// never executed) and OnShed settles the cursor so Next/Close
	// unwind. A saturated interactive queue surfaces as typed
	// ErrQueueFull rather than silently blocking the submitter.
	err := e.pool.Enqueue(sched.Task{
		Class:  sched.Interactive,
		Ctx:    sctx,
		Run:    work,
		OnShed: func(shedErr error) { c.finish(shedErr) },
	})
	if err != nil {
		c.finish(err)
		return nil, err
	}
	return c, nil
}
