package storage

import (
	"errors"
	"fmt"
	"os"

	"strings"
	"sync"
	"testing"

	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/storage/compress"
)

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func docWith(fields ...docmodel.Field) *docmodel.Document {
	return &docmodel.Document{MediaType: "application/json", Source: "t", Root: docmodel.Object(fields...)}
}

func TestPutAssignsIDsAndVersions(t *testing.T) {
	s := memStore(t)
	k1, err := s.Put(docWith(docmodel.F("n", docmodel.Int(1))))
	if err != nil {
		t.Fatal(err)
	}
	if k1.Doc.Origin != 1 || k1.Doc.Seq != 1 || k1.Ver != 1 {
		t.Errorf("first key = %s", k1)
	}
	k2, _ := s.Put(docWith(docmodel.F("n", docmodel.Int(2))))
	if k2.Doc.Seq != 2 {
		t.Errorf("second doc seq = %d", k2.Doc.Seq)
	}
	// Append a new version of doc 1.
	upd := docWith(docmodel.F("n", docmodel.Int(10)))
	upd.ID = k1.Doc
	k3, err := s.Put(upd)
	if err != nil {
		t.Fatal(err)
	}
	if k3.Ver != 2 {
		t.Errorf("update version = %d, want 2", k3.Ver)
	}
	got, err := s.Get(k1.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.First("/n").IntVal() != 10 {
		t.Error("Get should return latest version")
	}
	v1, err := s.GetVersion(docmodel.VersionKey{Doc: k1.Doc, Ver: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v1.First("/n").IntVal() != 1 {
		t.Error("old version must remain readable (immutability)")
	}
	if s.VersionCount(k1.Doc) != 2 || s.Len() != 2 {
		t.Errorf("counts: versions=%d docs=%d", s.VersionCount(k1.Doc), s.Len())
	}
}

func TestPutRejectsOverwriteAndGap(t *testing.T) {
	s := memStore(t)
	k, _ := s.Put(docWith(docmodel.F("a", docmodel.Int(1))))
	over := docWith(docmodel.F("a", docmodel.Int(2)))
	over.ID, over.Version = k.Doc, 1
	if _, err := s.Put(over); !errors.Is(err, ErrVersionExists) {
		t.Errorf("overwrite: %v", err)
	}
	gap := docWith(docmodel.F("a", docmodel.Int(3)))
	gap.ID, gap.Version = k.Doc, 5
	if _, err := s.Put(gap); !errors.Is(err, ErrVersionGap) {
		t.Errorf("gap: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	s := memStore(t)
	if _, err := s.Get(docmodel.DocID{Origin: 9, Seq: 9}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing get: %v", err)
	}
	if _, err := s.GetVersion(docmodel.VersionKey{Doc: docmodel.DocID{Origin: 1, Seq: 1}, Ver: 3}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing version: %v", err)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	s := memStore(t)
	for i := 0; i < 5; i++ {
		s.Put(docWith(docmodel.F("i", docmodel.Int(int64(i)))))
	}
	var seen []int64
	s.Scan(func(d *docmodel.Document) bool {
		seen = append(seen, d.First("/i").IntVal())
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Errorf("scan order/early-stop: %v", seen)
	}
}

func TestScanFilteredPushdown(t *testing.T) {
	s := memStore(t)
	for i := 0; i < 100; i++ {
		s.Put(docWith(docmodel.F("i", docmodel.Int(int64(i)))))
	}
	n := 0
	s.ScanFiltered(expr.Cmp("/i", expr.OpLt, docmodel.Int(10)), func(d *docmodel.Document) bool {
		n++
		return true
	})
	if n != 10 {
		t.Errorf("pushdown filter matched %d, want 10", n)
	}
}

func TestAggregateLocal(t *testing.T) {
	s := memStore(t)
	for i := 0; i < 10; i++ {
		s.Put(docWith(
			docmodel.F("region", docmodel.String([]string{"e", "w"}[i%2])),
			docmodel.F("amt", docmodel.Int(int64(i))),
		))
	}
	g := s.AggregateLocal(expr.True(), expr.GroupSpec{
		By:   []string{"/region"},
		Aggs: []expr.AggSpec{{Kind: expr.AggSum, Path: "/amt"}},
	})
	rows := g.Rows()
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	// e: 0+2+4+6+8=20, w: 1+3+5+7+9=25
	if rows[0].Aggs[0].FloatVal() != 20 || rows[1].Aggs[0].FloatVal() != 25 {
		t.Errorf("sums: %v %v", rows[0].Aggs[0], rows[1].Aggs[0])
	}
}

func TestPutReplicaIdempotent(t *testing.T) {
	primary := memStore(t)
	k, _ := primary.Put(docWith(docmodel.F("x", docmodel.Int(1))))
	doc, _ := primary.Get(k.Doc)

	replica, _ := Open(2, Options{})
	if err := replica.PutReplica(doc); err != nil {
		t.Fatal(err)
	}
	if err := replica.PutReplica(doc); err != nil {
		t.Fatal("redelivery must be a no-op, got", err)
	}
	got, err := replica.Get(k.Doc)
	if err != nil || got.First("/x").IntVal() != 1 {
		t.Errorf("replica content: %v %v", got, err)
	}
	if replica.Len() != 1 || replica.VersionCount(k.Doc) != 1 {
		t.Error("replica should hold exactly one version")
	}
	// Replica without identity is rejected.
	if err := replica.PutReplica(docWith()); err == nil {
		t.Error("identity-less replica must fail")
	}
}

func TestReplicaOutOfOrderVersions(t *testing.T) {
	primary := memStore(t)
	k, _ := primary.Put(docWith(docmodel.F("v", docmodel.Int(1))))
	u := docWith(docmodel.F("v", docmodel.Int(2)))
	u.ID = k.Doc
	primary.Put(u)
	v1, _ := primary.GetVersion(docmodel.VersionKey{Doc: k.Doc, Ver: 1})
	v2, _ := primary.GetVersion(docmodel.VersionKey{Doc: k.Doc, Ver: 2})

	replica, _ := Open(3, Options{})
	// Deliver v2 before v1 — replicas converge regardless of order.
	if err := replica.PutReplica(v2); err != nil {
		t.Fatal(err)
	}
	got, err := replica.Get(k.Doc)
	if err != nil || got.First("/v").IntVal() != 2 {
		t.Fatal("latest should be v2 after out-of-order delivery")
	}
	if err := replica.PutReplica(v1); err != nil {
		t.Fatal(err)
	}
	gv1, err := replica.GetVersion(docmodel.VersionKey{Doc: k.Doc, Ver: 1})
	if err != nil || gv1.First("/v").IntVal() != 1 {
		t.Error("backfilled v1 must be readable")
	}
}

func TestWALPersistenceAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(7, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var keys []docmodel.VersionKey
	for i := 0; i < 20; i++ {
		k, err := s.Put(docWith(docmodel.F("i", docmodel.Int(int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	u := docWith(docmodel.F("i", docmodel.Int(100)))
	u.ID = keys[0].Doc
	s.Put(u)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(7, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("recovered %d docs, want 20", s2.Len())
	}
	if s2.VersionCount(keys[0].Doc) != 2 {
		t.Error("recovered version chain wrong")
	}
	got, _ := s2.Get(keys[0].Doc)
	if got.First("/i").IntVal() != 100 {
		t.Error("recovered latest version wrong")
	}
	// Sequence continues without collision after recovery.
	k, err := s2.Put(docWith(docmodel.F("i", docmodel.Int(999))))
	if err != nil {
		t.Fatal(err)
	}
	if k.Doc.Seq <= 20 {
		t.Errorf("sequence reused after recovery: %v", k)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(7, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		s.Put(docWith(docmodel.F("i", docmodel.Int(int64(i)))))
	}
	s.Close()

	path := newestDataFile(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-frame to simulate a crash during append.
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(7, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 9 {
		t.Errorf("torn-tail recovery kept %d docs, want 9", s2.Len())
	}
	// Store keeps working after trim.
	if _, err := s2.Put(docWith(docmodel.F("i", docmodel.Int(42)))); err != nil {
		t.Fatal(err)
	}
}

func TestCompactPreservesAllVersions(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(7, Options{Dir: dir, Codec: compress.Flate})
	k, _ := s.Put(docWith(docmodel.F("v", docmodel.Int(1))))
	for i := 2; i <= 5; i++ {
		u := docWith(docmodel.F("v", docmodel.Int(int64(i))))
		u.ID = k.Doc
		if _, err := s.Put(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Writes still work after compaction.
	if _, err := s.Put(docWith(docmodel.F("v", docmodel.Int(99)))); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(7, Options{Dir: dir, Codec: compress.Flate})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.VersionCount(k.Doc) != 5 {
		t.Errorf("compaction lost versions: %d", s2.VersionCount(k.Doc))
	}
	if s2.Len() != 2 {
		t.Errorf("docs after compact+put: %d", s2.Len())
	}
}

func TestCompressionReducesStoredBytes(t *testing.T) {
	text := strings.Repeat("all work and no play makes jack a dull boy. ", 50)
	mk := func(codec compress.Codec) uint64 {
		s, _ := Open(1, Options{Codec: codec})
		for i := 0; i < 20; i++ {
			s.Put(docWith(docmodel.F("text", docmodel.String(text))))
		}
		_, _, _, _, stored := s.StatsSnapshot()
		return stored
	}
	plain := mk(compress.None)
	packed := mk(compress.Flate)
	if packed*3 > plain {
		t.Errorf("flate should shrink repetitive docs >3x: %d vs %d", packed, plain)
	}
}

func TestEachVersionOrder(t *testing.T) {
	s := memStore(t)
	k, _ := s.Put(docWith(docmodel.F("v", docmodel.Int(1))))
	u := docWith(docmodel.F("v", docmodel.Int(2)))
	u.ID = k.Doc
	s.Put(u)
	s.Put(docWith(docmodel.F("v", docmodel.Int(3))))
	var got []int64
	s.EachVersion(func(d *docmodel.Document) bool {
		got = append(got, d.First("/v").IntVal())
		return true
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("EachVersion order: %v", got)
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s := memStore(t)
	s.Close()
	if _, err := s.Put(docWith()); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

func TestOpenRejectsZeroOrigin(t *testing.T) {
	if _, err := Open(0, Options{}); err == nil {
		t.Error("zero origin must fail")
	}
}

func TestConcurrentPutsAndReads(t *testing.T) {
	s := memStore(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k, err := s.Put(docWith(docmodel.F("w", docmodel.Int(int64(w)))))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(k.Doc); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Scan(func(d *docmodel.Document) bool { return true })
		}
	}()
	wg.Wait()
	if s.Len() != 1600 {
		t.Errorf("docs = %d, want 1600", s.Len())
	}
	// All IDs distinct.
	seen := map[docmodel.DocID]bool{}
	dup := false
	s.Scan(func(d *docmodel.Document) bool {
		if seen[d.ID] {
			dup = true
		}
		seen[d.ID] = true
		return true
	})
	if dup {
		t.Error("duplicate doc IDs under concurrency")
	}
}

func TestStatsCounters(t *testing.T) {
	s := memStore(t)
	k, _ := s.Put(docWith(docmodel.F("a", docmodel.Int(1))))
	s.Get(k.Doc)
	s.Scan(func(*docmodel.Document) bool { return true })
	puts, gets, scanned, raw, stored := s.StatsSnapshot()
	if puts != 1 || gets < 1 || scanned != 1 {
		t.Errorf("counters: puts=%d gets=%d scanned=%d", puts, gets, scanned)
	}
	if raw == 0 || stored == 0 {
		t.Error("byte counters should be non-zero")
	}
}

func TestManyDocsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := memStore(t)
	const n = 5000
	for i := 0; i < n; i++ {
		_, err := s.Put(docWith(
			docmodel.F("i", docmodel.Int(int64(i))),
			docmodel.F("name", docmodel.String(fmt.Sprintf("doc-%d", i))),
		))
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("len = %d", s.Len())
	}
	count := 0
	s.ScanFiltered(expr.Cmp("/i", expr.OpGe, docmodel.Int(n-100)), func(*docmodel.Document) bool {
		count++
		return true
	})
	if count != 100 {
		t.Errorf("filtered scan matched %d", count)
	}
}
