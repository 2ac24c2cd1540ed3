package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// Sequence fingerprints for seed 7 (see TestSequencesAreSeeded).
const (
	pinnedScanHash  = 0xbd21acae173ab224
	pinnedServeHash = 0x0a1f07c4202e9917
	pinnedChurnHash = 0xd195961694ccbdf7
)

// Same seed, same bytes; another seed, other bytes. The pinned hashes also
// catch an accidental change of the generators: a benchmark whose inputs
// drift cannot be compared across commits.
func TestSequencesAreSeeded(t *testing.T) {
	gen := func(seed int64) [3]uint64 {
		corp, _ := genCorpus(seed, 200)
		return [3]uint64{
			seqHash(genScanOps(seed, 50, 2)),
			seqHash(genServeOps(seed, 2000, 2, corp)),
			seqHash(genChurnOps(seed, 2000, 2, corp)),
		}
	}
	a, b, other := gen(7), gen(7), gen(8)
	if a != b {
		t.Fatalf("same seed gave different sequences: %x vs %x", a, b)
	}
	for i := range a {
		if a[i] == other[i] {
			t.Errorf("sequence %d: seeds 7 and 8 gave the same hash %x", i, a[i])
		}
	}
	want := [3]uint64{pinnedScanHash, pinnedServeHash, pinnedChurnHash}
	if a != want {
		t.Errorf("sequence hashes for seed 7 = %#x, pinned %#x", a, want)
	}
}

func TestIngestUnitsAreSeeded(t *testing.T) {
	a, err := genIngestUnits(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genIngestUnits(7, 3)
	c, _ := genIngestUnits(8, 3)
	if !reflect.DeepEqual(a[2].hashes, b[2].hashes) {
		t.Error("same seed gave different ingest units")
	}
	if reflect.DeepEqual(a[2].hashes, c[2].hashes) {
		t.Error("different seeds gave the same ingest unit")
	}
	for _, u := range a {
		if len(u.batch) != unitBatch || len(u.raws) != unitRaw {
			t.Fatalf("unit has %d parsed + %d raw documents", len(u.batch), len(u.raws))
		}
	}
}

// The percentile rule: a median, plus the highest percentile that still
// has at least ten samples beyond it, with n.
func TestPercentileRule(t *testing.T) {
	series := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	for _, tc := range []struct {
		n      int
		tail   string
		tailNs float64
	}{
		{99, "", 0},
		{100, "p90", 90},
		{999, "p90", 900},
		{1000, "p99", 990},
		{10000, "p99.9", 9990},
		{100000, "p99.99", 99990},
	} {
		got := summarize(series(tc.n))
		if got.N != tc.n || got.Tail != tc.tail || got.TailNs != tc.tailNs {
			t.Errorf("n=%d: got n=%d tail=%q %v, want %q %v", tc.n, got.N, got.Tail, got.TailNs, tc.tail, tc.tailNs)
		}
		if want := math.Ceil(float64(tc.n) / 2); got.MedianNs != want {
			t.Errorf("n=%d: median %v, want %v", tc.n, got.MedianNs, want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// rule the driver applies to run-to-run spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1})
	if q1 != 0 || q3 != 6 {
		t.Errorf("quartiles(5,1) = %v, %v; Python gives 0, 6", q1, q3)
	}
}

// Self time is a span's duration minus what its children cover, with
// overlapping children counted once and children clipped to the parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps 2 by 10
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // runs past the parent
		{ID: 5, Parent: 2, StartNs: 15, EndNs: 20},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - (30 + 20 + 10), 2: 25, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// The scan and SQL oracles against brute force over a 200-document corpus.
func TestOraclesAgainstBruteForce(t *testing.T) {
	corp, _ := genCorpus(3, 200)
	o := newScanOracle(corp)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		lo := rng.Int63n(keyMax)
		hi := lo + rng.Int63n(keyMax/4)
		want, wantGroups := 0, map[uint8]groupAgg{}
		for _, d := range corp.docs {
			if d.k >= lo && d.k < hi {
				want++
			}
			if d.k < hi {
				g := wantGroups[d.cat]
				g.count++
				g.sum += d.val
				wantGroups[d.cat] = g
			}
		}
		if got := o.rangeCount(lo, hi); got != want {
			t.Fatalf("rangeCount(%d, %d) = %d, want %d", lo, hi, got, want)
		}
		got := o.groupBelow(hi)
		if len(got) != len(wantGroups) {
			t.Fatalf("groupBelow(%d): %d groups, want %d", hi, len(got), len(wantGroups))
		}
		for cat, w := range wantGroups {
			if g := got[cat]; g.count != w.count || math.Abs(g.sum-w.sum) > 1e-9*math.Abs(w.sum) {
				t.Fatalf("groupBelow(%d)[%d] = %+v, want %+v", hi, cat, g, w)
			}
		}
	}
	d := corp.docs[17]
	all, untouched := corp.countK(d.k)
	corp.touch(d)
	all2, untouched2 := corp.countK(d.k)
	if all < 1 || all2 != all || untouched2 != untouched-1 {
		t.Errorf("countK before touch %d/%d, after %d/%d", all, untouched, all2, untouched2)
	}
	catAll, catUntouched := corp.countCat(d.cat)
	if catUntouched != catAll-1 {
		t.Errorf("countCat after one touch: %d of %d untouched", catUntouched, catAll)
	}
}

// smokeOpts runs a workload at about a hundredth of its length, on a
// corpus small enough for a unit test, with every output check on.
func smokeOpts(t *testing.T, workload string, trace bool) runOpts {
	return runOpts{workload: workload, seed: 5, seconds: runSeconds / 100.0 * 4, trace: trace, outDir: t.TempDir(), docs: 400}
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		rep, err := runWorkload(smokeOpts(t, w.Name, false))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d operations failed", w.Name, rep.Correct, rep.Failed, rep.Attempted)
		}
		for _, def := range endToEnd {
			if m, ok := rep.Metrics[def.Name]; !ok || !(m.Value > 0) || m.Unit != def.Unit {
				t.Errorf("%s: metric %s = %+v", w.Name, def.Name, m)
			}
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(rep.Metrics), len(endToEnd))
		}
	}
}

// The traced run emits every per-layer metric, and its spans load as one
// JSON file in which every probe span has a parent.
func TestSmokeTraced(t *testing.T) {
	rep, err := runWorkload(smokeOpts(t, "churn", true))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	for _, def := range perLayer {
		if m, ok := rep.Metrics[def.Name]; !ok || m.Unit != def.Unit {
			t.Errorf("per-layer metric %s missing (%+v)", def.Name, m)
		}
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(perLayer))
	}
	data, err := os.ReadFile(rep.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []spanRec `json:"spans"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file does not load: %v", err)
	}
	byID := map[int]spanRec{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	probes, roots := 0, 0
	for _, s := range tf.Spans {
		switch {
		case s.Parent == 0:
			roots++
		default:
			parent, ok := byID[s.Parent]
			if !ok || parent.Op != s.Op {
				t.Fatalf("span %d (%s) has no parent in its operation", s.ID, s.Name)
			}
			probes++
		}
	}
	if probes == 0 || roots == 0 {
		t.Errorf("trace has %d probe spans and %d roots", probes, roots)
	}
}

// Every output check is live: a corrupted expectation must show up as
// failed operations in the phase that checks it, and an incorrect run.
func TestChecksAreLive(t *testing.T) {
	each := func(c *corpus, fn func(*rowDoc)) {
		for _, d := range c.docs {
			fn(d)
		}
	}
	for name, tc := range map[string]struct {
		phase    string
		sabotage func(*corpus)
	}{
		"get hash":    {"serve", func(c *corpus) { each(c, func(d *rowDoc) { d.hash.Store(1) }) }},
		"scan count":  {"scan", func(c *corpus) { each(c, func(d *rowDoc) { d.k = 0 }) }},
		"agg sum":     {"scan", func(c *corpus) { each(c, func(d *rowDoc) { d.val++ }) }},
		"sql count":   {"serve", func(c *corpus) { c.byK = map[int64][]int{} }},
		"facet count": {"serve", func(c *corpus) { c.catAll[facetCats[0]] -= 5 }},
	} {
		o := smokeOpts(t, "serve", false)
		o.afterSetup = tc.sabotage
		rep, err := runWorkload(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		failed := 0
		for _, ph := range rep.Phases {
			if ph.Name == tc.phase {
				failed = ph.Failed
			}
		}
		if rep.Correct || failed == 0 {
			t.Errorf("%s corrupted, but correct=%v and the %s phase has %d failures", name, rep.Correct, tc.phase, failed)
		}
	}
}

// BENCHMARK.json is the catalogue, and the catalogue fits the contract.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `bench manifest`:\n on disk %+v\n want    %+v", onDisk, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("contract limits: setup_s=%v, %d end-to-end, %d per-layer, %d bytes", hasSetup, len(endToEnd), len(perLayer), len(data))
	}
}
