package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"impliance"
	"impliance/internal/docmodel"
)

// ingestResult is the ingest phase's outcome beyond the common report.
type ingestResult struct {
	*phaseReport
	docs         int     // documents acknowledged
	docsPerS     float64 // docs / seconds from first call to Drain return
	drainMs      float64 // last acknowledgement to Drain return
	reopenS      float64
	storedPerRaw float64
	emptyOpenS   float64
	batchNs      samples // one IngestBatchContext of 100 items
	netBytes     uint64  // fabric bytes over the phase
	allocBytes   uint64  // bytes allocated over the phase
}

// acked is one acknowledged document and the hash it must read back with.
type acked struct {
	id   docmodel.DocID
	hash uint64
}

// ingestPhase loads mixed documents into an empty appliance in units of
// 110, stops the clock when Drain returns, then closes, sizes the
// directory, reopens it (reopen_s) and reads every acknowledged ID back.
// A copy of the directory taken after the last acknowledgement and before
// Close must recover the same documents. Unlike the other phases this one
// has a fixed length (refIngestDoc x seconds documents): reopen time and
// stored bytes are only comparable over the same content.
func ingestPhase(ctx context.Context, outDir string, seed int64, p phasePlan) (*ingestResult, error) {
	nUnits := max(p.refOps(refIngestDoc)/unitDocs, 2*p.clients())
	if p.traced {
		nUnits = max(nUnits/tracedShare, 2)
	}
	units, err := genIngestUnits(seed, nUnits)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	copyDir := dir + "-copy"
	defer os.RemoveAll(copyDir)

	t0 := time.Now()
	app, err := impliance.Open(applianceConfig(dir))
	if err != nil {
		return nil, fmt.Errorf("open empty appliance: %w", err)
	}
	res := &ingestResult{emptyOpenS: time.Since(t0).Seconds()}
	closed := false
	defer func() {
		if !closed {
			app.Close()
		}
	}()

	before := snapshot(app)
	var mu sync.Mutex
	var ackedDocs []acked
	cls := newClients(p.clients())
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fmt.Fprintf(os.Stderr, "bench: ingest client %d panicked: %v\n", cl.n, r)
					cl.attempted++
					cl.failed++
				}
			}()
			var mine []acked
			for u := cl.n; u < len(units) && ctx.Err() == nil; u += len(cls) {
				unit := &units[u]
				cl.attempted += unitDocs
				b0 := time.Now()
				ids, err := app.IngestBatchContext(ctx, unit.batch)
				cl.lat[opIngest] = append(cl.lat[opIngest], int64(time.Since(b0)))
				for i, id := range ids {
					mine = append(mine, acked{id, unit.hashes[i]})
				}
				if err != nil {
					cl.failed += unitDocs - len(ids)
					continue
				}
				for _, raw := range unit.raws {
					id, err := app.IngestBytesContext(ctx, raw.name, raw.data)
					if err != nil {
						cl.failed++
						continue
					}
					mine = append(mine, acked{id, raw.hash})
				}
			}
			mu.Lock()
			ackedDocs = append(ackedDocs, mine...)
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	lastAck := time.Now()
	app.Drain()
	end := time.Now()
	after := snapshot(app)

	rep := &phaseReport{Name: "ingest", Seconds: end.Sub(start).Seconds(), Timings: map[string]timing{}, extra: map[string]float64{}}
	rep.Attempted, rep.Failed = totals(cls)
	rep.Ops = rep.Attempted
	res.phaseReport = rep
	res.batchNs = merged(cls, opIngest)
	rep.time("ingest_batch_100", res.batchNs)
	res.docs = len(ackedDocs)
	res.docsPerS = float64(res.docs) / rep.Seconds
	res.drainMs = float64(end.Sub(lastAck).Microseconds()) / 1e3
	res.netBytes = after.netBytes - before.netBytes
	res.allocBytes = after.totalAlloc - before.totalAlloc
	rep.Counters = after.since(before)
	rawBytes := 0
	for i := range units {
		rawBytes += units[i].rawBytes
	}
	// Unfinished units (the ceiling fired) count as failed.
	if missing := len(units)*unitDocs - rep.Attempted; missing > 0 {
		rep.Attempted += missing
		rep.Failed += missing
	}

	// Acknowledged writes must be recoverable from the bytes written so
	// far, without a clean shutdown: copy before Close.
	if err := copyTree(dir, copyDir); err != nil {
		return nil, fmt.Errorf("copy data directory: %w", err)
	}
	closed = true
	if err := app.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	diskBytes, err := treeBytes(dir)
	if err != nil {
		return nil, err
	}
	res.storedPerRaw = float64(diskBytes) / float64(rawBytes)

	reopen, bad, err := reopenAndSweep(ctx, dir, ackedDocs)
	if err != nil {
		return nil, err
	}
	res.reopenS = reopen
	_, badCopy, err := reopenAndSweep(ctx, copyDir, ackedDocs)
	if err != nil {
		return nil, err
	}
	rep.Attempted += 2 * len(ackedDocs)
	rep.Failed += bad + badCopy
	return res, nil
}

// reopenAndSweep opens an appliance on dir, reads every acknowledged ID
// and counts those not readable with the ingested ContentHash.
func reopenAndSweep(ctx context.Context, dir string, docs []acked) (openS float64, bad int, err error) {
	t0 := time.Now()
	app, err := impliance.Open(applianceConfig(dir))
	if err != nil {
		return 0, 0, fmt.Errorf("reopen %s: %w", dir, err)
	}
	openS = time.Since(t0).Seconds()
	defer app.Close()
	for _, a := range docs {
		got, err := app.GetContext(ctx, a.id)
		if err != nil || got.ContentHash() != a.hash {
			bad++
		}
	}
	return openS, bad, nil
}

// treeBytes sums the sizes of all regular files under root.
func treeBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
