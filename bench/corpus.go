package main

import (
	"sort"
	"sync/atomic"

	"impliance"
	"impliance/internal/docmodel"
	"impliance/internal/workload"
)

// Shared corpus rows20k: workload.UniformRows(corpusDocs, keyMax,
// categories, padWords). 20,000 documents is about five times the point
// cache (4,096) and the summed store hot caches (4 x 1,024), so uniform
// access misses and a Zipf head fits.
const (
	corpusDocs  = 20000
	keyMax      = 10000
	categories  = 20
	padWords    = 8
	loadBatch   = 200
	rowsSource  = "uniform"
	rowsMedia   = "relational/row"
	rowsViewSQL = "rows"
)

// facetCats are the four repeating facet keywords (category tokens). Each
// matches about a twentieth of the corpus, and a facet request fetches
// every match through the point cache, so these 4 x 1,000 documents
// compete with the Zipf head for the 4,096 entries.
var facetCats = [4]uint8{2, 7, 12, 17}

// rowDoc is the harness's own record of one corpus document: the fields
// the oracles need plus the state the Get checks compare against. k, cat
// and pad never change after generation (updates rewrite only val), so
// the SQL, search and facet oracles stay static while writers run.
type rowDoc struct {
	id  docmodel.DocID
	k   int64
	cat uint8
	val float64 // current value; written only by the owning client
	pad string

	// hash is the ContentHash of the last acknowledged body, pending that
	// of a write in flight (0 = none), ver the last acknowledged version.
	// One client owns each document for writing; any client may read.
	hash    atomic.Uint64
	pending atomic.Uint64
	ver     atomic.Uint32
	// touched is set before the first write of a run reaches the
	// appliance: the index re-adds a document after removing its old
	// version, so index-backed reads may transiently miss touched rows.
	touched atomic.Bool
}

// corpus is the generated rows plus the oracles over them.
type corpus struct {
	docs []*rowDoc
	// byK maps a key to the documents carrying it.
	byK map[int64][]int
	// catAll counts documents per category, catTouched those of them a
	// write has touched in this run.
	catAll     [categories]int
	catTouched [categories]atomic.Int64
}

// touch marks the document as written in this run (before the write is
// issued), keeping the per-category touched counts in step.
func (c *corpus) touch(d *rowDoc) {
	if d.touched.CompareAndSwap(false, true) {
		c.catTouched[d.cat].Add(1)
	}
}

func rowBody(k int64, cat uint8, val float64, pad string) docmodel.Value {
	return docmodel.Object(
		docmodel.F("k", docmodel.Int(k)),
		docmodel.F("cat", docmodel.String(catToken(cat))),
		docmodel.F("val", docmodel.Float(val)),
		docmodel.F("pad", docmodel.String(pad)),
	)
}

// catToken renders category n as the corpus does: "c07".
func catToken(c uint8) string { return string([]byte{'c', '0' + c/10, '0' + c%10}) }

// catOf parses a category token; ok is false for anything else.
func catOf(tok string) (uint8, bool) {
	if len(tok) != 3 || tok[0] != 'c' || tok[1] < '0' || tok[1] > '9' || tok[2] < '0' || tok[2] > '9' {
		return 0, false
	}
	return (tok[1]-'0')*10 + (tok[2] - '0'), true
}

func bodyHash(body docmodel.Value) uint64 {
	return (&docmodel.Document{Root: body}).ContentHash()
}

// genCorpus generates n rows from the seed. The appliance only ever sees
// the returned items.
func genCorpus(seed int64, n int) (*corpus, []impliance.Item) {
	rows := workload.New(seed).UniformRows(n, keyMax, categories, padWords)
	c := &corpus{docs: make([]*rowDoc, n), byK: map[int64][]int{}}
	items := make([]impliance.Item, n)
	for i, r := range rows {
		cat, _ := catOf(r.Body.Get("cat").StringVal())
		d := &rowDoc{
			k:   r.Body.Get("k").IntVal(),
			cat: cat,
			val: r.Body.Get("val").FloatVal(),
			pad: r.Body.Get("pad").StringVal(),
		}
		d.hash.Store(bodyHash(r.Body))
		d.ver.Store(1)
		c.docs[i] = d
		c.byK[d.k] = append(c.byK[d.k], i)
		c.catAll[cat]++
		items[i] = impliance.Item{Body: r.Body, MediaType: r.MediaType, Source: r.Source}
	}
	return c, items
}

// --- oracles ---

// countK returns how many documents carry the key, and how many of those
// no write has touched in this run.
func (c *corpus) countK(k int64) (all, untouched int) {
	for _, i := range c.byK[k] {
		all++
		if !c.docs[i].touched.Load() {
			untouched++
		}
	}
	return all, untouched
}

// countCat returns how many documents carry the category, and how many of
// those no write has touched in this run.
func (c *corpus) countCat(cat uint8) (all, untouched int) {
	return c.catAll[cat], c.catAll[cat] - int(c.catTouched[cat].Load())
}

// scanOracle answers range counts and grouped aggregates over a frozen
// snapshot of the corpus (the scan phase runs with no writers).
type scanOracle struct {
	ks   []int64 // ascending
	rows []oracleRow
}

type oracleRow struct {
	k   int64
	cat uint8
	val float64
}

func newScanOracle(c *corpus) *scanOracle {
	o := &scanOracle{rows: make([]oracleRow, len(c.docs))}
	for i, d := range c.docs {
		o.rows[i] = oracleRow{d.k, d.cat, d.val}
	}
	sort.Slice(o.rows, func(i, j int) bool { return o.rows[i].k < o.rows[j].k })
	o.ks = make([]int64, len(o.rows))
	for i, r := range o.rows {
		o.ks[i] = r.k
	}
	return o
}

// below counts rows with k < x.
func (o *scanOracle) below(x int64) int {
	return sort.Search(len(o.ks), func(i int) bool { return o.ks[i] >= x })
}

// rangeCount counts rows with lo <= k < hi.
func (o *scanOracle) rangeCount(lo, hi int64) int { return o.below(hi) - o.below(lo) }

// groupAgg is one expected group of the group-by query.
type groupAgg struct {
	count int64
	sum   float64
}

// groupBelow aggregates count and sum(val) by category over rows with
// k < c.
func (o *scanOracle) groupBelow(c int64) map[uint8]groupAgg {
	out := map[uint8]groupAgg{}
	for _, r := range o.rows[:o.below(c)] {
		g := out[r.cat]
		g.count++
		g.sum += r.val
		out[r.cat] = g
	}
	return out
}
