package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/storage"
	"impliance/internal/tail"
)

func nextTail(t *testing.T, c *TailCursor) tail.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ev, err := c.Next(ctx)
	if err != nil {
		t.Fatalf("tail Next: %v", err)
	}
	return ev
}

// A subscription sees every matching committed write — ingests, the
// update's new version, and the delete carrying the pre-delete head so
// content filters still match the vanished document.
func TestTailDeliversIngestUpdateDelete(t *testing.T) {
	e := testEngine(t)
	c, err := e.Subscribe(expr.SourceIs("watched"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := e.Ingest(Item{Body: docmodel.String("first"), MediaType: "text/plain", Source: "watched"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(Item{Body: docmodel.String("noise"), MediaType: "text/plain", Source: "other"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Update(id, docmodel.String("second")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Delete(id); err != nil {
		t.Fatal(err)
	}

	ev := nextTail(t, c)
	if ev.Kind != tail.KindIngest || ev.Doc.ID != id {
		t.Fatalf("event 1: %v %v, want ingest of %v", ev.Kind, ev.Doc.ID, id)
	}
	ev = nextTail(t, c)
	if ev.Kind != tail.KindUpdate || ev.Doc.ID != id || ev.Doc.Version != 2 {
		t.Fatalf("event 2: %v %v v%d, want update v2", ev.Kind, ev.Doc.ID, ev.Doc.Version)
	}
	ev = nextTail(t, c)
	if ev.Kind != tail.KindDelete || ev.Doc.ID != id {
		t.Fatalf("event 3: %v %v, want delete of %v", ev.Kind, ev.Doc.ID, id)
	}
	if ev.Doc.Source != "watched" {
		t.Fatalf("delete event lost the pre-delete head (source %q)", ev.Doc.Source)
	}
	// The unfiltered "noise" ingest must not have been delivered.
	if got := c.Delivered(); got != 3 {
		t.Fatalf("delivered %d events, want 3", got)
	}
}

// Delete is versioned like any change: a tombstone version lands, Get
// reports the document gone, history stays reachable, and a replica
// holds the tombstone too.
func TestDeleteAppendsTombstoneVersion(t *testing.T) {
	e := testEngine(t)
	id, err := e.Ingest(Item{Body: docmodel.String("doomed"), MediaType: "text/plain", Source: "s"})
	if err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	key, err := e.Delete(id)
	if err != nil {
		t.Fatal(err)
	}
	if key.Ver != 2 {
		t.Fatalf("tombstone version %d, want 2", key.Ver)
	}
	if _, err := e.Get(id); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after delete: %v, want not-found", err)
	}
	old, err := e.GetVersion(docmodel.VersionKey{Doc: id, Ver: 1})
	if err != nil || old.Deleted {
		t.Fatalf("history unreachable after delete: %v", err)
	}
	// Idempotent: deleting again returns the same tombstone version.
	again, err := e.Delete(id)
	if err != nil || again.Ver != key.Ver {
		t.Fatalf("repeat delete: %v %v, want %v", again, err, key)
	}
}

// A closed cursor's watermarks resume a new subscription exactly after
// the acknowledged events: the engine-level no-gaps no-duplicates
// property.
func TestTailResumeAcrossCursors(t *testing.T) {
	e := testEngine(t)
	c, err := e.Subscribe(expr.SourceIs("res"))
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := e.Ingest(Item{Body: docmodel.Int(int64(i)), MediaType: "text/plain", Source: "res"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(6)
	seen := map[docmodel.DocID]int{}
	for i := 0; i < 4; i++ {
		seen[nextTail(t, c).Doc.ID]++
	}
	marks := c.Watermarks()
	c.Close()

	ingest(5)
	c2, err := e.Subscribe(expr.SourceIs("res"), WithTailResume(marks))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 7; i++ {
		seen[nextTail(t, c2).Doc.ID]++
	}
	if len(seen) != 11 {
		t.Fatalf("saw %d distinct docs, want 11", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("doc %v delivered %d times across the resume", id, n)
		}
	}
}

// Concurrent Subscribe/Close/ingest on the full engine: the -race
// lifecycle check at the API layer (the broker-level interleaving test
// lives in internal/tail).
func TestTailConcurrentSubscribeCloseIngest(t *testing.T) {
	e := testEngine(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = e.Ingest(Item{Body: docmodel.Int(int64(i)), MediaType: "text/plain", Source: "conc"})
		}
	}()
	for round := 0; round < 20; round++ {
		c, err := e.Subscribe(expr.True())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		for {
			if _, err := c.Next(ctx); err != nil {
				break
			}
		}
		cancel()
		c.Close()
	}
	close(stop)
	wg.Wait()
	if st := e.TailStats(); st.Published == 0 {
		t.Fatal("no events published during the concurrent run")
	}
}

// Resuming from a *wire* token must not skip partitions the first
// cursor never acked: EncodeTailResume omits zero watermarks, and a
// partition absent from the broker's resume map would attach live —
// so the engine densifies the marks and events landing in previously
// quiet partitions still replay. Regression for a gap observed over
// the HTTP SSE reconnect path.
func TestTailWireResumeNoGaps(t *testing.T) {
	e := testEngine(t)
	c, err := e.Subscribe(expr.SourceIs("wire"))
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := e.Ingest(Item{Body: docmodel.Int(int64(i)), MediaType: "text/plain", Source: "wire"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(3)
	seen := map[docmodel.DocID]int{}
	for i := 0; i < 3; i++ {
		seen[nextTail(t, c).Doc.ID]++
	}
	tok := EncodeTailResume(c.Watermarks())
	c.Close()

	// These land overwhelmingly in partitions the token never mentions.
	ingest(5)
	marks, err := DecodeTailResume(tok)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.Subscribe(expr.SourceIs("wire"), WithTailResume(marks))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 5; i++ {
		seen[nextTail(t, c2).Doc.ID]++
	}
	if len(seen) != 8 {
		t.Fatalf("saw %d distinct docs across the wire resume, want 8", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("doc %v delivered %d times across the wire resume", id, n)
		}
	}
}

// The tail resume token survives its wire round trip.
func TestTailResumeTokenRoundTrip(t *testing.T) {
	marks := map[int]uint64{3: 17, 0: 1, 12: 400}
	tok := EncodeTailResume(marks)
	got, err := DecodeTailResume(tok)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(marks) {
		t.Fatalf("round trip lost partitions: %v -> %v", marks, got)
	}
	for p, w := range marks {
		if got[p] != w {
			t.Fatalf("partition %d: %d != %d", p, got[p], w)
		}
	}
	for _, bad := range []string{
		"not-a-token",
		"3:7x9",                  // trailing garbage inside a watermark
		"3x:7",                   // trailing garbage inside a partition
		"1:2,1:3",                // repeated partition
		"-1:5",                   // negative partition
		"3:",                     // missing watermark
		":7",                     // missing partition
		"1:2,",                   // dangling pair
		"1:2, 3:4",               // interior whitespace
		"0x3:7",                  // non-decimal partition
		"3:7:9",                  // extra field
		"18446744073709551616:1", // partition overflows int
		"1:18446744073709551616", // watermark overflows uint64
	} {
		if _, err := DecodeTailResume(bad); err == nil {
			t.Fatalf("corrupt token %q must not decode", bad)
		}
	}
	if m, err := DecodeTailResume(""); err != nil || m != nil {
		t.Fatalf("empty token: %v %v, want fresh nil", m, err)
	}
}
