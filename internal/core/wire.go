package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"impliance/internal/docmodel"
	"impliance/internal/expr"
	"impliance/internal/index"
	"impliance/internal/tail"
)

// Wire formats for fabric messages. Documents travel in their native
// binary encoding; small control structures travel as JSON. Every byte is
// accounted by the fabric, which is what the pushdown and scale-out
// experiments measure.

// encodeDocs concatenates length-prefixed document encodings.
func encodeDocs(docs []*docmodel.Document) []byte {
	buf := make([]byte, 0, 256*len(docs)+8)
	buf = binary.AppendUvarint(buf, uint64(len(docs)))
	for _, d := range docs {
		b := docmodel.EncodeDocument(d)
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// decodeDocs parses encodeDocs output.
func decodeDocs(b []byte) ([]*docmodel.Document, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, fmt.Errorf("core: bad doc batch header")
	}
	// Each document costs at least one length byte, so a count beyond the
	// remaining payload is corrupt; checking before the preallocation
	// keeps a hostile header from sizing the slice.
	if n > uint64(len(b)-off) {
		return nil, fmt.Errorf("core: doc batch count %d exceeds payload", n)
	}
	out := make([]*docmodel.Document, 0, n)
	for i := uint64(0); i < n; i++ {
		l, m := binary.Uvarint(b[off:])
		if m <= 0 || uint64(len(b)-off-m) < l {
			return nil, fmt.Errorf("core: truncated doc batch")
		}
		off += m
		d, err := docmodel.DecodeDocument(b[off : off+int(l)])
		if err != nil {
			return nil, err
		}
		off += int(l)
		out = append(out, d)
	}
	if off != len(b) {
		return nil, fmt.Errorf("core: trailing bytes in doc batch")
	}
	return out, nil
}

// Paged scan protocol. A scan request names the partitions to scan, the
// pushed-down filter and a page bound; the node replies with up to Page
// matching documents plus a resume token (the ID of the last document it
// *examined*, matching or not). The caller re-calls with the token until
// more=false, so peak reply size — and the caller's peak undecoded
// buffer — is O(page), not O(corpus). The node walks its partitions'
// registered IDs in sorted order and resumes at the first ID greater
// than the token, so registrations and deletions under the cursor can
// neither repeat nor skip a document that was there throughout.

type scanReq struct {
	Filter  []byte `json:"filter,omitempty"` // expr.Encode
	Parts   []int  `json:"parts,omitempty"`  // partitions this node answers for
	Page    int    `json:"page,omitempty"`   // max docs per reply; <= 0 = everything
	AfterID string `json:"after_id,omitempty"`
}

// encodeScanPage frames one scan reply:
// flags byte (bit0 = more) | origin uvarint | seq uvarint | doc batch.
func encodeScanPage(docs []*docmodel.Document, more bool, lastID docmodel.DocID) []byte {
	var flags byte
	if more {
		flags = 1
	}
	buf := make([]byte, 0, 32)
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(lastID.Origin))
	buf = binary.AppendUvarint(buf, lastID.Seq)
	return append(buf, encodeDocs(docs)...)
}

// decodeScanPage parses encodeScanPage output.
func decodeScanPage(b []byte) (docs []*docmodel.Document, more bool, lastID docmodel.DocID, err error) {
	if len(b) < 1 {
		return nil, false, docmodel.DocID{}, fmt.Errorf("core: empty scan page")
	}
	more = b[0]&1 != 0
	off := 1
	vals := [2]uint64{}
	for i := range vals {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, false, docmodel.DocID{}, fmt.Errorf("core: truncated scan page header")
		}
		vals[i], off = v, off+n
	}
	lastID = docmodel.DocID{Origin: uint32(vals[0]), Seq: vals[1]}
	docs, err = decodeDocs(b[off:])
	return docs, more, lastID, err
}

// wire control structs (JSON).

type searchReq struct {
	Terms []string `json:"terms"`
	K     int      `json:"k"`
}

type searchHit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

type valueLookupReq struct {
	Path  string `json:"path"`
	Value []byte `json:"value,omitempty"` // docmodel.EncodeValue
	Lo    []byte `json:"lo,omitempty"`
	Hi    []byte `json:"hi,omitempty"`
	LoInc bool   `json:"lo_inc,omitempty"`
	HiInc bool   `json:"hi_inc,omitempty"`
	Range bool   `json:"range,omitempty"`
	// Parts restricts the probe to these partitions of the node's value
	// index (nil = all). The engine's router fills it with the partitions
	// it selected this node for.
	Parts []int `json:"parts,omitempty"`
}

type idListResp struct {
	IDs []string `json:"ids"`
}

type getBatchReq struct {
	IDs []string `json:"ids"`
}

type aggReq struct {
	Filter []byte        `json:"filter"` // expr.Encode
	By     []string      `json:"by"`
	Aggs   []aggSpecWire `json:"aggs"`
	// Parts names the partitions to aggregate. The reply is JSON
	// []aggPartialWire, one partial per partition, so the engine can cache
	// each partition's contribution under its own routing generation.
	Parts []int `json:"parts,omitempty"`
}

// aggPartialWire is one partition's aggregate partial in an aggregation
// reply.
type aggPartialWire struct {
	Part    int    `json:"part"`
	Partial []byte `json:"partial"` // expr EncodePartials blob
}

type aggSpecWire struct {
	Kind uint8  `json:"kind"`
	Path string `json:"path,omitempty"`
}

func specToWire(spec expr.GroupSpec) aggReq {
	r := aggReq{By: spec.By}
	for _, a := range spec.Aggs {
		r.Aggs = append(r.Aggs, aggSpecWire{Kind: uint8(a.Kind), Path: a.Path})
	}
	return r
}

func (r aggReq) spec() expr.GroupSpec {
	spec := expr.GroupSpec{By: r.By}
	for _, a := range r.Aggs {
		spec.Aggs = append(spec.Aggs, expr.AggSpec{Kind: expr.AggKind(a.Kind), Path: a.Path})
	}
	return spec
}

type mergeReq struct {
	By       []string      `json:"by"`
	Aggs     []aggSpecWire `json:"aggs"`
	Partials [][]byte      `json:"partials"`
}

type facetsReq struct {
	Path string   `json:"path"`
	IDs  []string `json:"ids,omitempty"` // candidate documents to count
	// Parts names the partitions of the node's index to count. The reply
	// is []facetPartialWire, per partition, so the engine can cache each
	// partition's partial separately.
	Parts []int `json:"parts,omitempty"`
}

// facetPartialWire is one partition's facet buckets in a facet reply.
type facetPartialWire struct {
	Part    int               `json:"part"`
	Buckets []facetBucketWire `json:"buckets"`
}

type facetBucketWire struct {
	Value []byte `json:"value"`
	Count int    `json:"count"`
}

type lockReq struct {
	Name  string `json:"name"`
	Owner string `json:"owner"`
}

type lockResp struct {
	Token uint64 `json:"token"`
	OK    bool   `json:"ok"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: marshal wire struct: %v", err))
	}
	return b
}

func unmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }

func parseIDs(ids []string) ([]docmodel.DocID, error) {
	out := make([]docmodel.DocID, 0, len(ids))
	for _, s := range ids {
		id, err := docmodel.ParseDocID(s)
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	return out, nil
}

func idStrings(ids []docmodel.DocID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// Tail wire protocol. A tail subscription crosses process boundaries
// (the HTTP SSE endpoint, implctl tail), so its three control messages
// have stable wire forms: the subscribe carries a filter and an optional
// resume token, each delivery is one TailFrame, and the acknowledgement
// is implicit in the frame — Resume on frame N is the token that resumes
// delivery exactly after N (per-partition acknowledged watermarks,
// encoded "part:watermark" pairs joined by commas).

// TailFrame is one delivered tail event in wire form.
type TailFrame struct {
	Partition int             `json:"part"`
	Seq       uint64          `json:"seq"`
	Gen       uint64          `json:"gen"`
	Kind      string          `json:"kind"` // ingest | update | delete
	ID        string          `json:"id"`
	Version   uint32          `json:"version"`
	MediaType string          `json:"media_type,omitempty"`
	Source    string          `json:"source,omitempty"`
	Body      json.RawMessage `json:"body,omitempty"`
	// Resume is the token that resumes the subscription exactly after
	// this frame (the cursor's acknowledged watermarks at delivery).
	Resume string `json:"resume"`
}

// TailFrameOf converts a delivered event plus the cursor's current
// watermarks into its wire frame.
func TailFrameOf(ev tail.Event, marks map[int]uint64) TailFrame {
	f := TailFrame{
		Partition: ev.Partition,
		Seq:       ev.Seq,
		Gen:       ev.Gen,
		Kind:      ev.Kind.String(),
		Resume:    EncodeTailResume(marks),
	}
	if ev.Doc != nil {
		f.ID = ev.Doc.ID.String()
		f.Version = ev.Doc.Version
		f.MediaType = ev.Doc.MediaType
		f.Source = ev.Doc.Source
		f.Body = docmodel.ToJSON(ev.Doc.Root)
	}
	return f
}

// EncodeTailResume renders per-partition watermarks as a resume token:
// "part:watermark" pairs in ascending partition order, comma-joined.
// Zero watermarks are omitted (nothing acknowledged, nothing to skip).
func EncodeTailResume(marks map[int]uint64) string {
	parts := make([]int, 0, len(marks))
	for p, w := range marks {
		if w > 0 {
			parts = append(parts, p)
		}
	}
	sort.Ints(parts)
	var sb strings.Builder
	for i, p := range parts {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d:%d", p, marks[p])
	}
	return sb.String()
}

// DecodeTailResume parses EncodeTailResume output. An empty token is a
// fresh subscription (nil map). Parsing is strict — trailing garbage in
// a pair or a repeated partition rejects the whole token, because a
// silently misread watermark skips (or replays) committed events.
func DecodeTailResume(tok string) (map[int]uint64, error) {
	if tok == "" {
		return nil, nil
	}
	marks := map[int]uint64{}
	for _, pair := range strings.Split(tok, ",") {
		ps, ws, ok := strings.Cut(pair, ":")
		if !ok {
			return nil, fmt.Errorf("core: bad tail resume token %q", tok)
		}
		p, perr := strconv.Atoi(ps)
		w, werr := strconv.ParseUint(ws, 10, 64)
		if perr != nil || werr != nil || p < 0 {
			return nil, fmt.Errorf("core: bad tail resume token %q", tok)
		}
		if _, dup := marks[p]; dup {
			return nil, fmt.Errorf("core: bad tail resume token %q: partition %d repeated", tok, p)
		}
		marks[p] = w
	}
	return marks, nil
}

func hitsToWire(hits []index.Hit) []searchHit {
	out := make([]searchHit, len(hits))
	for i, h := range hits {
		out[i] = searchHit{ID: h.ID.String(), Score: h.Score}
	}
	return out
}

func hitsFromWire(ws []searchHit) ([]index.Hit, error) {
	out := make([]index.Hit, len(ws))
	for i, w := range ws {
		id, err := docmodel.ParseDocID(w.ID)
		if err != nil {
			return nil, err
		}
		out[i] = index.Hit{ID: id, Score: w.Score}
	}
	return out, nil
}
