package main

import (
	"math"
	"sort"
)

// samples is one timing series in nanoseconds.
type samples []int64

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile reads the q-quantile of an ascending series (nearest rank).
func quantile(sorted samples, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// tailLadder lists the tail percentiles a timing may be reported at; one
// sample in every `in` lies beyond the percentile.
var tailLadder = []struct {
	name string
	q    float64
	in   int
}{{"p90", 0.90, 10}, {"p99", 0.99, 100}, {"p99.9", 0.999, 1000}, {"p99.99", 0.9999, 10000}}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// timing is how every latency is reported: the median, plus the highest
// ladder percentile that still has at least minBeyond samples beyond it.
type timing struct {
	N        int     `json:"n"`
	MedianNs float64 `json:"median_ns"`
	Tail     string  `json:"tail,omitempty"`
	TailNs   float64 `json:"tail_ns,omitempty"`
}

func summarize(s samples) timing {
	so := s.sorted()
	t := timing{N: len(so), MedianNs: quantile(so, 0.5)}
	for _, step := range tailLadder {
		if len(so)/step.in < minBeyond {
			break
		}
		t.Tail, t.TailNs = step.name, quantile(so, step.q)
	}
	return t
}

// median of a float series (not sorted in place).
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// does (exclusive method), which is the rule the benchmark driver uses for
// run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4 // taken after clamping j, as Python does
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
