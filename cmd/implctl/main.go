// Command implctl is a local appliance workbench: it boots an in-process
// appliance, loads a seeded demo corpus (or user files), and answers
// one-shot queries — handy for exploring the system without the HTTP
// server.
//
// Usage:
//
//	implctl [flags] demo                  # load demo corpus, print stats
//	implctl [flags] search  <keyword...>  # demo corpus + ranked search
//	implctl [flags] sql     <statement>   # demo corpus + SQL
//	implctl [flags] ingest  <file> [query...]  # ingest a file, optionally search it
//	implctl [flags] compact               # demo corpus + compaction pass, storage stats
//	implctl [flags] merge                 # demo corpus + segment merge/GC, storage stats
//	implctl [flags] overload              # demo corpus + two-tenant burst against the
//	                                      # admission gate, scheduler/admission counters
//	implctl [flags] tail [source]         # live-tail the demo load: stream committed
//	                                      # writes from one source (default "claims")
//	                                      # as JSON frames, then print the resume token
//
// Flags:
//
//	-dir PATH          persist data-node segment stores under PATH (default: in-memory)
//	-timeout DUR       per-query deadline (default 30s; queries past it are
//	                   cancelled and their node fan-out abandoned)
//	-admit-rate R      interactive admission tokens/sec per tenant
//	                   (0 = gate off; the overload verb defaults it to 50)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"impliance"
	"impliance/internal/expr"
	"impliance/internal/workload"
)

func main() {
	log.SetFlags(0)
	dir := flag.String("dir", "", "persistence directory (empty = in-memory)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query deadline")
	admitRate := flag.Float64("admit-rate", 0, "interactive admission tokens/sec per tenant (0 = gate off)")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		log.Fatal("usage: implctl [-dir PATH] demo | search <kw...> | sql <stmt> | ingest <file> [query...] | compact | merge | overload | tail [source]")
	}
	if args[0] == "overload" && *admitRate == 0 {
		// The verb exists to show the gate working; a tight default rate
		// guarantees visible rejections from a short burst.
		*admitRate = 50
	}
	// Workbench-sized segments: the demo corpus is a few hundred KB, so
	// the production roll-over threshold would never seal a segment and
	// the compact/merge verbs would have nothing to show.
	app, err := impliance.Open(impliance.Config{
		Dir: *dir, SegmentBytes: 16 << 10,
		AdmissionInteractiveRate: *admitRate,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer app.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch args[0] {
	case "demo":
		loadDemo(app)
		m := app.MetricsSnapshotContext(ctx)
		fmt.Printf("demo corpus loaded: %d documents, %d annotations, %d join edges\n",
			m.Documents, m.Annotations, m.JoinEdges)
		fmt.Printf("indexed docs: %d; interconnect: %d msgs / %d KB\n",
			m.IndexedDocs, m.Net.Messages, m.Net.Bytes/1024)
		c := m.Caches
		fmt.Printf("hot-path caches: point %d hit / %d miss, negative %d/%d, partial %d/%d; %d invalidations\n",
			c.PointHits, c.PointMisses, c.NegativeHits, c.NegativeMisses,
			c.PartialHits, c.PartialMisses,
			c.PointInvalidations+c.NegativeInvalidations+c.PartialInvalidations)
		printOverload(m)

	case "search":
		if len(args) < 2 {
			log.Fatal("usage: implctl search <keyword...>")
		}
		loadDemo(app)
		rows, err := app.SearchContext(ctx, strings.Join(args[1:], " "), 10)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("%-8s %.3f  %.90s\n", r.Docs[0].ID, r.Score, r.Docs[0].Root.String())
		}
		if len(rows) == 0 {
			fmt.Println("no hits")
		}

	case "sql":
		if len(args) < 2 {
			log.Fatal("usage: implctl sql <statement>")
		}
		loadDemo(app)
		res, err := app.ExecSQLContext(ctx, strings.Join(args[1:], " "))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, "\t"))
		}

	case "ingest":
		if len(args) < 2 {
			log.Fatal("usage: implctl ingest <file> [query...]")
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		id, err := app.IngestBytesContext(ctx, args[1], data)
		if err != nil {
			log.Fatal(err)
		}
		app.Drain()
		d, _ := app.GetContext(ctx, id)
		fmt.Printf("ingested %s as %s (%s)\n", args[1], id, d.MediaType)
		if len(args) > 2 {
			rows, err := app.SearchContext(ctx, strings.Join(args[2:], " "), 5)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("query matches it: %v\n", len(rows) > 0 && rows[0].Docs[0].ID == id)
		}

	case "compact":
		loadDemo(app)
		printFootprint(app, "before compact")
		if err := app.Engine().CompactStores(); err != nil {
			log.Fatal(err)
		}
		printFootprint(app, "after compact")

	case "merge":
		loadDemo(app)
		printFootprint(app, "before merge")
		folds, err := app.Engine().MergeStores()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("merge folded sealed segments on %d data nodes\n", folds)
		printFootprint(app, "after merge")

	case "tail":
		// Live tail over the demo load: subscribe first, then ingest the
		// corpus concurrently so the frames stream out as writes commit.
		source := "claims"
		if len(args) > 1 {
			source = args[1]
		}
		cur, err := app.Tail(impliance.SourceIs(source), impliance.WithTailPolicy(impliance.TailPolicyBlock))
		if err != nil {
			log.Fatal(err)
		}
		defer cur.Close()
		done := make(chan struct{})
		go func() { defer close(done); loadDemo(app) }()
		frames := 0
		for {
			// After the load finishes, a short deadline drains the queued
			// remainder and ends the watch; a real deployment would sit on
			// this loop forever (see the HTTP server's GET /tail).
			next, cancelNext := context.WithTimeout(ctx, time.Second)
			ev, err := cur.Next(next)
			cancelNext()
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					// Terminal subscription error (closed, cancelled,
					// lagged) — retrying would spin hot forever.
					fmt.Fprintf(os.Stderr, "tail terminated: %v\n", err)
					break
				}
				select {
				case <-done:
				default:
					continue // load still running, keep waiting
				}
				break
			}
			frames++
			out, err := json.Marshal(impliance.TailFrameOf(ev, cur.Watermarks()))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(string(out))
		}
		<-done
		fmt.Printf("tailed %d %q writes; resume token to continue exactly here: %q\n",
			frames, source, impliance.EncodeTailResume(cur.Watermarks()))

	case "overload":
		loadDemo(app)
		// Two tenants fire a burst far above the per-tenant refill rate:
		// the bucket admits its burst capacity, then fast-rejects the
		// rest without touching the pool.
		admitted, rejected := 0, 0
		for i := 0; i < 200; i++ {
			tenant := "alice"
			if i%2 == 1 {
				tenant = "bob"
			}
			_, err := app.SearchContext(ctx, "insurance claim", 5, impliance.WithTenant(tenant))
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, impliance.ErrOverloaded):
				rejected++
			default:
				log.Fatal(err)
			}
		}
		fmt.Printf("burst of 200 searches from 2 tenants at %g tokens/s each: %d admitted, %d rejected\n",
			*admitRate, admitted, rejected)
		printOverload(app.MetricsSnapshotContext(ctx))

	default:
		log.Fatalf("unknown subcommand %q", args[0])
	}
}

// printOverload pretty-prints the overload-control counters: per-class
// pool accounting (executed, queued, shed, queue-full) with wait-time
// percentiles, per-class admission decisions, and stream fan-out sheds.
func printOverload(m impliance.Metrics) {
	fmt.Printf("%-14s %8s %6s %12s %13s %11s %9s %9s\n",
		"sched class", "tasks", "depth", "shed@submit", "shed@dequeue", "queue-full", "wait p50", "wait p99")
	for _, class := range []string{"interactive", "background", "durability"} {
		s := m.Sched[class]
		fmt.Printf("%-14s %8d %6d %12d %13d %11d %8dµs %8dµs\n",
			class, s.Tasks, s.QueueDepth, s.ShedAtSubmit, s.ShedAtDequeue, s.RejectedFull,
			s.WaitP50Us, s.WaitP99Us)
	}
	for _, class := range []string{"interactive", "background", "durability"} {
		a := m.Admission[class]
		if a.Admitted+a.Rejected > 0 {
			fmt.Printf("admission %-12s: %d admitted, %d rejected\n", class, a.Admitted, a.Rejected)
		}
	}
	if m.StreamShedCalls > 0 {
		fmt.Printf("stream fan-out: %d node calls shed before dispatch\n", m.StreamShedCalls)
	}
}

// printFootprint reports the appliance-wide storage footprint: bytes the
// chains still reference (live) vs bytes sitting in segment files (disk).
// In-memory stores report zero disk.
func printFootprint(app *impliance.Appliance, when string) {
	live, disk := app.Engine().StorageFootprint()
	amp := "n/a"
	if live > 0 && disk > 0 {
		amp = fmt.Sprintf("%.2f", float64(disk)/float64(live))
	}
	fmt.Printf("storage %-14s: live %d KB, disk %d KB, amplification %s\n", when, live/1024, disk/1024, amp)
}

// loadDemo fills the appliance with the CRM demo corpus and registers the
// matching views.
func loadDemo(app *impliance.Appliance) {
	g := workload.New(2026)
	profiles := g.CustomerProfiles(30)
	items := append(profiles, g.CallTranscripts(150, profiles, 0.9)...)
	items = append(items, g.InsuranceClaims(100, 0.15)...)
	for _, it := range items {
		if _, err := app.Ingest(impliance.Item{Body: it.Body, MediaType: it.MediaType, Source: it.Source}); err != nil {
			log.Fatal(err)
		}
	}
	app.Drain()
	if _, err := app.RunDiscovery(); err != nil {
		log.Fatal(err)
	}
	app.RegisterView("claims", expr.SourceIs("claims"), map[string]string{
		"id": "/claim/@id", "patient": "/claim/patient", "procedure": "/claim/procedure",
		"amount": "/claim/amount", "flagged": "/claim/flagged",
	})
	app.RegisterView("customers", expr.SourceIs("crm-profiles"), map[string]string{
		"id": "/customer_id", "name": "/name", "city": "/city",
		"segment": "/segment", "ltv": "/lifetime_value",
	})
}
