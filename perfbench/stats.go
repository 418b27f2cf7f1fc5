package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the fixed set of percentiles latency_tail_ms may report,
// highest first. A run reports the highest one, up to its workload's
// stated percentile, that leaves at least tailBeyond samples above it,
// so the tail is never a single outlier. The cap keeps the reported
// percentile the same from run to run while samples are plentiful.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

const tailBeyond = 10

// latencies is one run's request latency sample.
type latencies []time.Duration

// sorted returns an ascending copy.
func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s
}

// rank returns the nearest-rank index of percentile p in n samples: the
// smallest index whose value is at or above p percent of the sample.
func rank(p float64, n int) int {
	// The tolerance keeps decimal percentiles such as 99.9 from landing
	// one rank high on binary rounding.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile is the nearest-rank percentile of an ascending sample.
func (s latencies) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[rank(p, len(s))]
}

// tailPercentile picks the highest ladder percentile at or below max
// with at least tailBeyond of n samples strictly beyond its rank. ok is
// false when even the lowest rung leaves fewer than that.
func tailPercentile(n int, max float64) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if p > max {
			continue
		}
		if b := n - 1 - rank(p, n); n > 0 && b >= tailBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// latencySummary is the median and the tail of one sample.
type latencySummary struct {
	N       int
	P50     time.Duration
	TailP   float64 // the percentile Tail reports
	Tail    time.Duration
	Beyond  int // samples above Tail
	TailOK  bool
	Max     time.Duration
	Samples latencies // ascending
}

// summarize is the median and the tail, at most percentile maxTail.
func summarize(l latencies, maxTail float64) latencySummary {
	s := l.sorted()
	out := latencySummary{N: len(s), Samples: s}
	if len(s) == 0 {
		return out
	}
	out.P50 = s.percentile(50)
	out.Max = s[len(s)-1]
	out.TailP, out.Beyond, out.TailOK = tailPercentile(len(s), maxTail)
	if out.TailOK {
		out.Tail = s.percentile(out.TailP)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianF is the median of xs (0 for none); xs is reordered.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianD is medianF over durations, in the duration's own unit.
func medianD(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(medianF(xs))
}

// ratio is a/b, 0 when b is 0: per-op counters on a workload that did
// none of that work read 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
