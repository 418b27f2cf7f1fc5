package main

import (
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		max    float64
		want   float64
		beyond int
		ok     bool
	}{
		{n: 3000, max: 99, want: 99, beyond: 30, ok: true},
		{n: 1000, max: 99, want: 99, beyond: 10, ok: true},
		{n: 999, max: 99, want: 98, beyond: 19, ok: true}, // p99 would leave 9
		{n: 100000, max: 99, want: 99, beyond: 1000, ok: true},
		{n: 100000, max: 100, want: 99.9, beyond: 100, ok: true},
		{n: 400, max: 95, want: 95, beyond: 20, ok: true},
		{n: 20, max: 99, want: 50, beyond: 10, ok: true},
		{n: 19, max: 99, ok: false},
		{n: 0, max: 99, ok: false},
	} {
		p, beyond, ok := tailPercentile(tc.n, tc.max)
		if ok != tc.ok || ok && (p != tc.want || beyond != tc.beyond) {
			t.Errorf("tailPercentile(%d, %g) = p%g, %d beyond, %v; want p%g, %d beyond, %v",
				tc.n, tc.max, p, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	// 1..1000 ms: p99 is the 990th value, with exactly ten above it.
	var l latencies
	for i := 1000; i >= 1; i-- {
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	s := summarize(l, 99)
	if !s.TailOK || s.TailP != 99 || s.Tail != 990*time.Millisecond || s.Beyond != 10 {
		t.Fatalf("tail = p%g %v with %d beyond (ok %v), want p99 990ms with 10", s.TailP, s.Tail, s.Beyond, s.TailOK)
	}
	above := 0
	for _, d := range l {
		if d > s.Tail {
			above++
		}
	}
	if above != tailBeyond {
		t.Fatalf("%d samples above the tail, want %d", above, tailBeyond)
	}
	if s.P50 != 500*time.Millisecond || s.N != 1000 || s.Max != time.Second {
		t.Fatalf("p50 %v n %d max %v", s.P50, s.N, s.Max)
	}
}

func TestMedianF(t *testing.T) {
	if got := medianF([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := medianF([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := medianF(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}
