package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"impliance"
	"impliance/internal/docmodel"
	"impliance/internal/ingest"
	"impliance/internal/workload"
)

// opKind names one facade operation of a sequence.
type opKind uint8

const (
	opGet       opKind = iota // GetContext of a chosen corpus document
	opGetRecent               // GetContext of one of the client's last written IDs
	opSearch                  // SearchContext(cNN, 10)
	opFacet                   // FacetsContext(keyword, /cat)
	opSQL                     // ExecSQLContext(... WHERE k = ?)
	opUpdate                  // UpdateContext of an owned document
	opIngest                  // IngestContext of a new row
	opDelete                  // DeleteContext of a document the client ingested
	opScan                    // RunContext, lo <= /k < lo+100
	opScanWide                // RunContext, lo <= /k < lo+2000
	opAgg                     // RunContext, group by /cat under /k < c
	numOpKinds
)

var opNames = [numOpKinds]string{
	"get", "get_recent", "search", "facet", "sql", "update", "ingest",
	"delete", "scan", "scan_wide", "agg",
}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isWrite() bool { return k == opUpdate || k == opIngest || k == opDelete }
func (k opKind) isGet() bool   { return k == opGet || k == opGetRecent }

// op is one pre-generated operation. Which fields matter depends on kind;
// choices that need run-time state (the IDs a client has ingested so far)
// carry a random number r and are resolved by the executing client.
type op struct {
	kind opKind
	doc  int32  // corpus index (get, update); category (search); keyword (facet)
	r    uint32 // run-time choice (get_recent, delete)
	k    int64  // sql key; scan lo; agg c
	// Writes carry their body, pre-built so the timed loop only calls the
	// appliance, and the body's ContentHash for the later Get checks.
	body docmodel.Value
	hash uint64
	val  float64
	cat  uint8
}

// Scan widths: 1 % and 20 % of the key space.
const (
	scanWidth     = keyMax / 100
	scanWideWidth = keyMax / 5
)

// seqHash fingerprints a sequence (kinds, targets, parameters and write
// bodies): the same seed must give the same bytes.
func seqHash(ops []op) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range ops {
		o := &ops[i]
		put(uint64(o.kind))
		put(uint64(uint32(o.doc)))
		put(uint64(o.r))
		put(uint64(o.k))
		put(o.hash)
	}
	return h.Sum64()
}

// Phase salts keep the four sequences of one run independent.
const (
	saltScan   = 0x5ca9
	saltServe  = 0x5e7e
	saltChurn  = 0xc4a2
	saltIngest = 0x19e5
)

// genScanOps: kinds cycle scan, agg, scan-wide, agg, scan (40/20/40) so
// that short sequences hold the mix exactly, and each kind is repeated
// once per client so that concurrent clients mostly run like operations
// beside each other (an operation's time depends on what shares the two
// cores with it). lo and c differ on every operation so the partial cache
// cannot answer.
func genScanOps(seed int64, n, clients int) []op {
	rng := rand.New(rand.NewSource(seed ^ saltScan))
	cycle := [5]opKind{opScan, opAgg, opScanWide, opAgg, opScan}
	ops := make([]op, n)
	usedLo, usedC := map[int64]bool{}, map[int64]bool{}
	fresh := func(used map[int64]bool, lo, span int64) int64 {
		for {
			v := lo + rng.Int63n(span)
			if !used[v] || len(used) >= int(span) {
				used[v] = true
				return v
			}
		}
	}
	for i := range ops {
		o := &ops[i]
		o.kind = cycle[i/clients%len(cycle)]
		switch o.kind {
		case opScan:
			o.k = fresh(usedLo, 0, keyMax-scanWidth)
		case opScanWide:
			o.k = fresh(usedLo, 0, keyMax-scanWideWidth)
		case opAgg:
			// c in the upper half: the filter keeps 50-100 % of the rows,
			// so the aggregate does real per-row work on every node.
			o.k = fresh(usedC, keyMax/2, keyMax/2)
		}
	}
	return ops
}

// Serve mix: 70 % Zipf Gets, 10 % search, 5 % facets, 10 % SQL, 5 %
// updates.
const zipfS = 1.1

func genServeOps(seed int64, n, clients int, c *corpus) []op {
	rng := rand.New(rand.NewSource(seed ^ saltServe))
	nd := len(c.docs)
	// Zipf ranks map through a permutation so hot keys spread over
	// partitions.
	perm := rng.Perm(nd)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(nd-1))
	ops := make([]op, n)
	searches, facets := 0, 0
	for i := range ops {
		o := &ops[i]
		switch u := rng.Float64(); {
		case u < 0.70:
			o.kind, o.doc = opGet, int32(perm[zipf.Uint64()])
		case u < 0.80:
			o.kind, o.doc = opSearch, int32(searches%categories)
			searches++
		case u < 0.85:
			o.kind, o.doc = opFacet, int32(facets%len(facetCats))
			facets++
		case u < 0.95:
			o.kind, o.k = opSQL, c.docs[rng.Intn(nd)].k
		default:
			o.kind = opUpdate
			o.doc = int32(ownedDoc(rng, nd, clients, i%clients))
			fillUpdate(o, c, rng)
		}
	}
	return ops
}

// ownedDoc picks a uniform corpus document among those the client owns
// for writing (index congruent to the client number).
func ownedDoc(rng *rand.Rand, nd, clients, client int) int {
	return rng.Intn(nd/clients)*clients + client
}

// fillUpdate builds the update's body: k, cat and pad stay, val is redrawn.
func fillUpdate(o *op, c *corpus, rng *rand.Rand) {
	d := c.docs[o.doc]
	o.val = rng.Float64() * 1000
	o.body = rowBody(d.k, d.cat, o.val, d.pad)
	o.hash = bodyHash(o.body)
}

// Churn mix: 30 % update, 8 % ingest, 2 % delete, 40 % Get of a recently
// written ID, 20 % uniform Get. Operation i belongs to client i mod
// clients, and clients own disjoint halves of the IDs.
func genChurnOps(seed int64, n, clients int, c *corpus) []op {
	rng := rand.New(rand.NewSource(seed ^ saltChurn))
	words := workload.New(seed ^ saltChurn)
	nd := len(c.docs)
	ops := make([]op, n)
	live := make([]int, clients) // ingested and not yet deleted, per client
	for i := range ops {
		o := &ops[i]
		cl := i % clients
		o.r = rng.Uint32()
		u := rng.Float64()
		if u >= 0.38 && u < 0.40 && live[cl] == 0 {
			u = 0.30 // nothing to delete yet: ingest instead
		}
		switch {
		case u < 0.30:
			o.kind = opUpdate
			o.doc = int32(ownedDoc(rng, nd, clients, cl))
			fillUpdate(o, c, rng)
		case u < 0.38:
			o.kind = opIngest
			o.k, o.cat, o.val = rng.Int63n(keyMax), uint8(rng.Intn(categories)), rng.Float64()*1000
			o.body = rowBody(o.k, o.cat, o.val, words.Words(padWords))
			o.hash = bodyHash(o.body)
			live[cl]++
		case u < 0.40:
			o.kind = opDelete
			live[cl]--
		case u < 0.80:
			o.kind = opGetRecent
		default:
			o.kind, o.doc = opGet, int32(rng.Intn(nd))
		}
	}
	return ops
}

// --- ingest units ---

// ingestUnit is 110 documents: one IngestBatchContext of 100 parsed items,
// then 10 IngestBytesContext calls (5 JSON, 5 XML renderings).
const (
	unitBatch = 100
	unitRaw   = 10
	unitDocs  = unitBatch + unitRaw
	mixKinds  = 5
)

type rawDoc struct {
	name string
	data []byte
	hash uint64 // ContentHash of what ingest.Auto maps the bytes to
}

type ingestUnit struct {
	batch    []impliance.Item
	hashes   []uint64 // ContentHash per batch item
	raws     []rawDoc
	rawBytes int // sum of len(EncodeValue(body)) over the unit
}

// genIngestUnits builds units of mixed documents. Every unit holds exactly
// 22 documents of each of the five kinds, shuffled by the seed, so any
// prefix of whole units has the same mix.
func genIngestUnits(seed int64, units int) ([]ingestUnit, error) {
	g := workload.New(seed ^ saltIngest)
	rng := rand.New(rand.NewSource(seed ^ saltIngest))
	per := units * unitDocs / mixKinds
	customers := g.CustomerProfiles(per)
	pools := [mixKinds][]workload.Item{
		customers,
		g.CallTranscripts(per, customers, 0.5),
		g.PurchaseOrders(per, customers, 0.3),
		g.InsuranceClaims(per, 0.05),
		g.Emails(per, 0.3),
	}
	out := make([]ingestUnit, units)
	for u := range out {
		docs := make([]workload.Item, 0, unitDocs)
		for k := range pools {
			docs = append(docs, pools[k][u*unitDocs/mixKinds:(u+1)*unitDocs/mixKinds]...)
		}
		rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		unit := &out[u]
		for i, d := range docs {
			if i < unitBatch {
				unit.batch = append(unit.batch, impliance.Item{Body: d.Body, MediaType: d.MediaType, Source: d.Source})
				unit.hashes = append(unit.hashes, bodyHash(d.Body))
				unit.rawBytes += len(docmodel.EncodeValue(d.Body))
				continue
			}
			var raw rawDoc
			if i%2 == 0 {
				raw.name, raw.data = d.Source+".json", docmodel.ToJSON(d.Body)
			} else {
				raw.name, raw.data = d.Source+".xml", ingest.ToXML("doc", d.Body)
			}
			// The appliance stores what the sniffers make of the bytes, not
			// the generator's value: derive the expectation the same way.
			mapped, _, err := ingest.Auto(raw.name, raw.data)
			if err != nil {
				return nil, err
			}
			raw.hash = bodyHash(mapped)
			unit.rawBytes += len(docmodel.EncodeValue(mapped))
			unit.raws = append(unit.raws, raw)
		}
	}
	return out, nil
}
