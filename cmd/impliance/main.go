// Command impliance runs an appliance instance behind an HTTP API — the
// turn-key deployment of paper §3.1: start the binary and the system is
// operational, no schema or configuration required. Every handler
// threads its request's context into the appliance, so a client that
// disconnects mid-query abandons the node fan-out instead of riding it
// to completion.
//
// Endpoints:
//
//	POST /ingest?source=NAME     body = raw bytes (JSON/XML/e-mail/text/binary, sniffed)
//	GET  /doc/{id}               fetch latest version as JSON
//	GET  /search?q=...&k=10      ranked keyword search
//	GET  /facets?q=...&dim=/path facet counts (repeat dim=)
//	POST /sql                    body = SQL statement text
//	GET  /connect?a=ID&b=ID      connection path between two documents
//	POST /discover               run an inter-document discovery pass
//	GET  /metrics                appliance health counters
//	GET  /tail?source=NAME       live tail of committed writes (SSE; &q=, &path=,
//	                             &policy=block|shed|cancel, &resume=TOKEN)
//
// Flags:
//
//	-addr :8080    listen address
//	-data N        data nodes
//	-grid N        grid nodes
//	-dir PATH      persist data-node segment stores under PATH (default: in-memory)
//	-admit-rate R  interactive admission tokens/sec per tenant (0 = gate off)
//	-admit-burst B interactive admission burst (0 = one second of refill)
//	-ingest-admit-rate R   ingest admission tokens/sec per source (0 = gate off)
//	-ingest-admit-burst B  ingest admission burst (0 = one second of refill)
//
// Requests may carry an X-Tenant header (or ?tenant=): each tenant
// draws from its own admission bucket, and a rejected request comes
// back as 429 with a Retry-After hint instead of queueing.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"

	"impliance"
	"impliance/internal/docmodel"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataNodes := flag.Int("data", 4, "data nodes")
	gridNodes := flag.Int("grid", 2, "grid nodes")
	dir := flag.String("dir", "", "persistence directory (empty = in-memory)")
	admitRate := flag.Float64("admit-rate", 0, "interactive admission tokens/sec per tenant (0 = gate off)")
	admitBurst := flag.Float64("admit-burst", 0, "interactive admission burst (0 = one second of refill)")
	ingestAdmitRate := flag.Float64("ingest-admit-rate", 0, "ingest admission tokens/sec per source (0 = gate off)")
	ingestAdmitBurst := flag.Float64("ingest-admit-burst", 0, "ingest admission burst (0 = one second of refill)")
	flag.Parse()

	app, err := impliance.Open(impliance.Config{
		DataNodes: *dataNodes, GridNodes: *gridNodes, Dir: *dir,
		AdmissionInteractiveRate:  *admitRate,
		AdmissionInteractiveBurst: *admitBurst,
		AdmissionIngestRate:       *ingestAdmitRate,
		AdmissionIngestBurst:      *ingestAdmitBurst,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer app.Close()

	s := &server{app: app}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.ingest)
	mux.HandleFunc("GET /doc/", s.doc)
	mux.HandleFunc("GET /search", s.search)
	mux.HandleFunc("GET /facets", s.facets)
	mux.HandleFunc("POST /sql", s.sql)
	mux.HandleFunc("GET /connect", s.connect)
	mux.HandleFunc("POST /discover", s.discover)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /tail", s.tail)

	log.Printf("impliance appliance listening on %s (data=%d grid=%d dir=%q)",
		*addr, *dataNodes, *gridNodes, *dir)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

type server struct {
	app *impliance.Appliance
}

func (s *server) ingest(w http.ResponseWriter, r *http.Request) {
	source := r.URL.Query().Get("source")
	if source == "" {
		source = "http"
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.app.IngestBytesContext(r.Context(), source, body)
	if err != nil {
		if overloaded(w, err) {
			return
		}
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, map[string]string{"id": id.String()})
}

func (s *server) doc(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/doc/")
	id, err := docmodel.ParseDocID(idStr)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	d, err := s.app.GetContext(r.Context(), id, tenantOpt(r)...)
	if err != nil {
		if overloaded(w, err) {
			return
		}
		httpErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"id":%q,"version":%d,"mediaType":%q,"source":%q,"body":%s}`,
		d.ID, d.Version, d.MediaType, d.Source, docmodel.ToJSON(d.Root))
}

func (s *server) search(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	k, _ := strconv.Atoi(r.URL.Query().Get("k"))
	if k <= 0 {
		k = 10
	}
	rows, err := s.app.SearchContext(r.Context(), q, k, tenantOpt(r)...)
	if err != nil {
		if overloaded(w, err) {
			return
		}
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	type hit struct {
		ID    string          `json:"id"`
		Score float64         `json:"score"`
		Body  json.RawMessage `json:"body"`
	}
	out := make([]hit, 0, len(rows))
	for _, row := range rows {
		out = append(out, hit{
			ID:    row.Docs[0].ID.String(),
			Score: row.Score,
			Body:  docmodel.ToJSON(row.Docs[0].Root),
		})
	}
	writeJSON(w, out)
}

func (s *server) facets(w http.ResponseWriter, r *http.Request) {
	req := impliance.FacetRequest{
		Keyword:    r.URL.Query().Get("q"),
		Dimensions: r.URL.Query()["dim"],
		Refine:     impliance.True(),
	}
	res, err := s.app.FacetsContext(r.Context(), req, tenantOpt(r)...)
	if err != nil {
		if overloaded(w, err) {
			return
		}
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	type bucket struct {
		Value json.RawMessage `json:"value"`
		Count int             `json:"count"`
	}
	type dim struct {
		Path    string   `json:"path"`
		Buckets []bucket `json:"buckets"`
	}
	out := struct {
		Total int   `json:"total"`
		Dims  []dim `json:"dimensions"`
	}{Total: res.Total}
	for _, d := range res.Dimensions {
		nd := dim{Path: d.Path}
		for _, b := range d.Buckets {
			nd.Buckets = append(nd.Buckets, bucket{Value: docmodel.ToJSON(b.Value), Count: b.Count})
		}
		out.Dims = append(out.Dims, nd)
	}
	writeJSON(w, out)
}

func (s *server) sql(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.app.ExecSQLContext(r.Context(), string(body), tenantOpt(r)...)
	if err != nil {
		if overloaded(w, err) {
			return
		}
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	out := struct {
		Columns []string            `json:"columns"`
		Rows    [][]json.RawMessage `json:"rows"`
	}{Columns: res.Columns}
	for _, row := range res.Rows {
		jr := make([]json.RawMessage, len(row))
		for i, v := range row {
			jr[i] = docmodel.ToJSON(v)
		}
		out.Rows = append(out.Rows, jr)
	}
	writeJSON(w, out)
}

func (s *server) connect(w http.ResponseWriter, r *http.Request) {
	a, err := docmodel.ParseDocID(r.URL.Query().Get("a"))
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	b, err := docmodel.ParseDocID(r.URL.Query().Get("b"))
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	path := s.app.ConnectContext(r.Context(), a, b, 6)
	type edge struct{ From, To, Label string }
	out := struct {
		Connected bool   `json:"connected"`
		Path      []edge `json:"path"`
	}{Connected: path != nil}
	for _, e := range path {
		out.Path = append(out.Path, edge{e.From.String(), e.To.String(), e.Label})
	}
	writeJSON(w, out)
}

func (s *server) discover(w http.ResponseWriter, r *http.Request) {
	rep, err := s.app.RunDiscoveryContext(r.Context())
	if err != nil {
		httpErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, rep)
}

func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.app.MetricsSnapshotContext(r.Context()))
}

// tail streams committed writes as server-sent events: one
// `data:` line per delivery carrying the TailFrame JSON, whose
// `resume` field is the opaque watermark token a reconnecting client
// passes back as ?resume= to continue exactly after its last received
// event — the crash-safe continuous-query loop. Filters compose from
// ?source= and ?q= (optionally scoped by ?path=); ?policy= picks the
// lag policy (default: the SLO-class default, shed-oldest for
// background subscriptions).
func (s *server) tail(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	filter := impliance.True()
	if src := q.Get("source"); src != "" {
		filter = impliance.And(filter, impliance.SourceIs(src))
	}
	if text := q.Get("q"); text != "" {
		filter = impliance.And(filter, impliance.Contains(q.Get("path"), text))
	}
	opts := []impliance.TailOption{}
	if t := r.Header.Get("X-Tenant"); t != "" {
		opts = append(opts, impliance.WithTailTenant(t))
	} else if t := q.Get("tenant"); t != "" {
		opts = append(opts, impliance.WithTailTenant(t))
	}
	switch q.Get("policy") {
	case "":
	case "block":
		opts = append(opts, impliance.WithTailPolicy(impliance.TailPolicyBlock))
	case "shed":
		opts = append(opts, impliance.WithTailPolicy(impliance.TailPolicyShedOld))
	case "cancel":
		opts = append(opts, impliance.WithTailPolicy(impliance.TailPolicyCancel))
	default:
		httpErr(w, http.StatusBadRequest, fmt.Errorf("unknown policy %q", q.Get("policy")))
		return
	}
	if tok := q.Get("resume"); tok != "" {
		marks, err := impliance.DecodeTailResume(tok)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		opts = append(opts, impliance.WithTailResume(marks))
	}
	cur, err := s.app.TailContext(r.Context(), filter, opts...)
	if err != nil {
		if overloaded(w, err) {
			return
		}
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	defer cur.Close()

	flusher, ok := w.(http.Flusher)
	if !ok {
		httpErr(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		ev, err := cur.Next(r.Context())
		if err != nil {
			// Client gone, appliance closing, or the cancel policy fired:
			// a final comment line names the reason, then the stream ends.
			fmt.Fprintf(w, ": end %v\n\n", err)
			flusher.Flush()
			return
		}
		frame, err := json.Marshal(impliance.TailFrameOf(ev, cur.Watermarks()))
		if err != nil {
			log.Printf("encode tail frame: %v", err)
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", frame)
		flusher.Flush()
	}
}

// tenantOpt names the caller's admission bucket from the X-Tenant
// header (or ?tenant=); absent, requests share the default bucket.
func tenantOpt(r *http.Request) []impliance.CallOption {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		t = r.URL.Query().Get("tenant")
	}
	if t == "" {
		return nil
	}
	return []impliance.CallOption{impliance.WithTenant(t)}
}

// overloaded turns an admission rejection into 429 + Retry-After; the
// request never reached the pool, so retrying after the hint is safe.
func overloaded(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, impliance.ErrOverloaded) {
		return false
	}
	var oe *impliance.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		secs := int(oe.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	httpErr(w, http.StatusTooManyRequests, err)
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func httpErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
