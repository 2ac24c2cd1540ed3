package main

import (
	"context"
	"sync/atomic"
	"time"

	"impliance"
	"impliance/internal/docmodel"
)

// tailCat is the category the filtered subscriber follows ("c03").
const tailCat = 3

// tailRec is one delivery as the drain goroutine saw it. The goroutine
// only timestamps and appends; every check runs after the clients stop.
type tailRec struct {
	id         docmodel.DocID
	ver        uint32
	kind       impliance.TailKind
	part       int
	seq        uint64
	at         time.Time
	annotation bool
}

// tailSink drains one subscription.
type tailSink struct {
	cur  *impliance.TailCursor
	recs []tailRec
	n    atomic.Int64
	done chan struct{}
}

func startSink(ctx context.Context, cur *impliance.TailCursor, capacity int) *tailSink {
	s := &tailSink{cur: cur, recs: make([]tailRec, 0, capacity), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			ev, err := cur.Next(ctx)
			if err != nil {
				return
			}
			at := time.Now()
			s.recs = append(s.recs, tailRec{
				id: ev.Doc.ID, ver: ev.Doc.Version, kind: ev.Kind,
				part: ev.Partition, seq: ev.Seq, at: at, annotation: ev.Doc.IsAnnotation(),
			})
			s.n.Add(1)
		}
	}()
	return s
}

// tailSinks are the churn phase's two subscribers, both under
// TailPolicyBlock: match-all, and /cat = "c03".
type tailSinks struct {
	all, c03 *tailSink
	cancel   context.CancelFunc
}

func openTailSinks(ctx context.Context, app *impliance.Appliance, expectWrites int) (*tailSinks, error) {
	all, err := app.TailContext(ctx, impliance.True(), impliance.WithTailPolicy(impliance.TailPolicyBlock))
	if err != nil {
		return nil, err
	}
	c03, err := app.TailContext(ctx,
		impliance.Cmp("/cat", impliance.OpEq, impliance.String(catToken(tailCat))),
		impliance.WithTailPolicy(impliance.TailPolicyBlock))
	if err != nil {
		all.Close()
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	// Capacity for the writes the reference rate predicts, annotations
	// and a faster commit included, so appends rarely grow the slice.
	capacity := expectWrites * 2
	return &tailSinks{all: startSink(sctx, all, capacity), c03: startSink(sctx, c03, capacity/8), cancel: cancel}, nil
}

// tailCheck is the outcome of the delivery checks.
type tailCheck struct {
	expected int     // deliveries the committed writes call for
	bad      int     // missing, duplicated, unexpected or out-of-order deliveries
	lags     samples // Next return minus start of the producing write call
}

// settle waits until the sink's count has stopped moving (the appliance
// has drained, so everything is published; the consumer only has to empty
// its queue), then stops the drain goroutines.
func (t *tailSinks) settle(want int64) {
	deadline := time.Now().Add(10 * time.Second)
	last, still := int64(-1), 0
	for time.Now().Before(deadline) {
		n := t.all.n.Load() + t.c03.n.Load()
		if n == last && t.all.n.Load() >= want {
			if still++; still >= 5 {
				break
			}
		} else {
			last, still = n, 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.cancel()
	<-t.all.done
	<-t.c03.done
}

// finish stops the subscribers and checks them against the committed
// writes: match-all saw exactly one event per write, per-partition Seq
// strictly increasing, nothing dropped; the filtered one saw exactly the
// c03 writes.
func (t *tailSinks) finish(writes []writeRec) tailCheck {
	t.settle(int64(len(writes)))
	defer t.all.cur.Close()
	defer t.c03.cur.Close()

	type evKey struct {
		key  docmodel.VersionKey
		kind impliance.TailKind
	}
	want := make(map[evKey]time.Time, len(writes))
	wantC03 := 0
	for _, w := range writes {
		want[evKey{w.key, w.kind}] = w.start
		if w.c03 {
			wantC03++
		}
	}
	tc := tailCheck{expected: len(writes) + wantC03}
	lastSeq := map[int]uint64{}
	seen := make(map[evKey]bool, len(writes))
	for _, r := range t.all.recs {
		if r.seq <= lastSeq[r.part] {
			tc.bad++
		}
		lastSeq[r.part] = r.seq
		if r.annotation {
			continue
		}
		k := evKey{docmodel.VersionKey{Doc: r.id, Ver: r.ver}, r.kind}
		if r.kind == impliance.TailDelete {
			// A delete event carries the last live version; the write is
			// the tombstone after it.
			k.key.Ver++
		}
		start, ok := want[k]
		if !ok || seen[k] {
			tc.bad++
			continue
		}
		seen[k] = true
		tc.lags = append(tc.lags, int64(r.at.Sub(start)))
	}
	tc.bad += len(want) - len(seen)
	gotC03 := 0
	for _, r := range t.c03.recs {
		if !r.annotation {
			gotC03++
		}
	}
	if gotC03 != wantC03 {
		tc.bad += abs(gotC03 - wantC03)
	}
	if t.all.cur.Dropped() != 0 || t.c03.cur.Dropped() != 0 {
		tc.bad++
	}
	return tc
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
