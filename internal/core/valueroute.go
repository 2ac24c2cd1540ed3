package core

import (
	"sync/atomic"

	"impliance/internal/docmodel"
)

// Partition-routed value-index probes. A value predicate used to be a
// broadcast: every data node probed its whole value index, so
// value-predicate queries cost O(nodes) messages while routed point Gets
// cost O(RF). The router below closes that asymmetry. Postings are keyed
// by (partition, path, value) on each node (internal/index), and every
// partition carries path statistics — distinct paths with live postings
// and their value-kind histograms. The router walks the partition map:
// for each partition it asks the read-side owners' local statistics
// whether the (path, value) can match there, and fans the probe out only
// to the nodes that admit it, each probe carrying the partitions that
// node was selected for. Partitions inside an open dual-ownership window
// are probed on every ring member instead — their index is mid-hand-over
// (the same generation-fenced window rule reads already respect), so the
// whole ring is the only set guaranteed to cover both sides.

// valueProbeCounters accounts the routed value-lookup path.
type valueProbeCounters struct {
	lookups          atomic.Uint64 // value lookups executed
	probes           atomic.Uint64 // index-probe calls sent
	partitionsPruned atomic.Uint64 // partitions skipped by path statistics
	windowFallbacks  atomic.Uint64 // lookups that crossed an open hand-off window
}

// ValueProbeStats reports the routed value-lookup accounting: lookups
// executed, index-probe messages sent, partitions pruned by path
// statistics, and lookups that fell back to a per-partition broadcast
// because a dual-ownership window was open.
func (e *Engine) ValueProbeStats() (lookups, probes, pruned, windowFallbacks uint64) {
	return e.valueProbes.lookups.Load(),
		e.valueProbes.probes.Load(),
		e.valueProbes.partitionsPruned.Load(),
		e.valueProbes.windowFallbacks.Load()
}

// valueProbeKind extracts the kind-pruning hint from a lookup request:
// the queried value's kind for an equality probe; for a range, the kind
// shared by both bounds when they agree (the total value order groups
// non-numeric kinds, and Int/Float are matched as one numeric class), or
// no hint for open or kind-crossing ranges.
func valueProbeKind(req valueLookupReq) (docmodel.Kind, bool) {
	if !req.Range {
		v, err := docmodel.DecodeValue(req.Value)
		if err != nil {
			return 0, false
		}
		return v.Kind(), true
	}
	if req.Lo == nil || req.Hi == nil {
		return 0, false
	}
	lo, err := docmodel.DecodeValue(req.Lo)
	if err != nil {
		return 0, false
	}
	hi, err := docmodel.DecodeValue(req.Hi)
	if err != nil {
		return 0, false
	}
	if lo.Kind() == hi.Kind() || (numericKind(lo.Kind()) && numericKind(hi.Kind())) {
		return lo.Kind(), true
	}
	return 0, false
}

func numericKind(k docmodel.Kind) bool {
	return k == docmodel.KindInt || k == docmodel.KindFloat
}

// valueProbeBounds extracts the value interval a lookup constrains — the
// probed value itself for an equality probe ([v, v], both inclusive),
// the request's bounds for a range — so the planner can consult the
// partitions' observed min/max statistics. A decode failure or a fully
// open range drops the hint (no bounds pruning) rather than failing the
// plan.
func valueProbeBounds(req valueLookupReq) (lo, hi *docmodel.Value, loInc, hiInc, ok bool) {
	if !req.Range {
		v, err := docmodel.DecodeValue(req.Value)
		if err != nil {
			return nil, nil, false, false, false
		}
		return &v, &v, true, true, true
	}
	if req.Lo != nil {
		v, err := docmodel.DecodeValue(req.Lo)
		if err != nil {
			return nil, nil, false, false, false
		}
		lo = &v
	}
	if req.Hi != nil {
		v, err := docmodel.DecodeValue(req.Hi)
		if err != nil {
			return nil, nil, false, false, false
		}
		hi = &v
	}
	if lo == nil && hi == nil {
		return nil, nil, false, false, false
	}
	return lo, hi, req.LoInc, req.HiInc, true
}

// valueProbePlan plans the minimal probe set for a value predicate onto
// pl: which nodes to call and, per node, which of its partitions to
// consult. For each settled partition the candidates are its holders
// (partPlan.holders: the postings live on exactly one of them — the
// answering owner at index time — and each candidate's own statistics
// decide whether it is probed). Returns the number of partitions pruned
// by statistics and the number routed through the open-window whole-ring
// fallback.
//
// staleReads (the WithStaleReads call option) turns the open-window
// fallback off: a partition mid-hand-off is treated like a settled one
// and probed on its read-side owners only. The probe may then miss rows
// whose index entry already moved to the joining side — the caller
// traded that staleness for not broadcasting under churn.
func (e *Engine) valueProbePlan(pl *partPlan, req valueLookupReq, staleReads bool) (pruned, windowed int) {
	kind, haveKind := valueProbeKind(req)
	lo, hi, loInc, hiInc, haveBounds := valueProbeBounds(req)
	for p := 0; p < e.smgr.Partitions(); p++ {
		window := !staleReads && e.smgr.InHandoff(p)
		if window {
			windowed++
		}
		// Path/kind admission first, then the observed value bounds: a
		// partition whose min/max provably excludes the probed interval
		// cannot match and is pruned from the fan-out.
		if pl.holders(p, window, func(dn *dataNode) bool {
			return dn.ix.Admits(p, req.Path, kind, haveKind) &&
				(!haveBounds || dn.ix.AdmitsValueRange(p, req.Path, lo, hi, loInc, hiInc))
		}) {
			pruned++
		}
	}
	return pruned, windowed
}
