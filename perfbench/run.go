package main

import (
	"fmt"
	"runtime"
	"time"
)

// runEndToEnd is the untraced run: setupRepeats setups, one timed
// window on the last, the output checks, and the end-to-end metrics.
func runEndToEnd(b *bench, def workloadDef, dur time.Duration) (result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		inst = def.new(b)
		start := time.Now()
		if err := inst.setup(nil); err != nil {
			inst.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	before := snapshot(inst.nodes())
	w := inst.window(dur)
	delta := snapshot(inst.nodes()).sub(before)
	heap := liveHeapMB()
	ck := inst.checker()
	inst.verify(w, delta)
	var maxRate float64
	var ladAtt int
	if h, ok := inst.(*hitFlood); ok {
		maxRate, ladAtt = h.ladder(b.rep)
	}

	rep := b.rep
	lat := summarize(w.latencies(), def.tailP)
	rep.att = len(w.outs) + w.extraAttempted + ladAtt
	rep.failed = ck.failed
	correct := ck.failed == 0 && w.invalid == ""
	if w.invalid != "" {
		rep.printf("INVALID: %s", w.invalid)
		rep.failed++
	}
	for _, m := range ck.msgs {
		rep.printf("check failed: %s", m)
	}
	if !lat.TailOK {
		rep.printf("too few samples (%d) for a tail percentile", lat.N)
	}
	rep.printf("latency sample n=%d: tail is p%g with %d samples beyond; max %.3f ms", lat.N, lat.TailP, lat.Beyond, ms(lat.Max))
	rep.set("ops_per_s", float64(w.okOps())/w.elapsed.Seconds(), "1/s")
	rep.set("latency_p50_ms", ms(lat.P50), "ms")
	rep.set("live_heap_mb", heap, "MB")
	rep.set("setup_s", medianF(setups), "s")
	// The tail is printed but not gated: on a shared 2-vCPU host its
	// run-to-run spread is wider than any bound a gate may use.
	rep.note("latency_tail_ms", ms(lat.Tail), "ms")
	if delta.trials > 0 {
		rep.note("trials_per_s", float64(delta.trials)/w.elapsed.Seconds(), "1/s")
	}
	if maxRate > 0 {
		rep.note("max_rate_ops_s", maxRate, "1/s")
	}
	rep.note("error_rate", ratio(float64(rep.failed), float64(rep.att)), "ratio")
	rep.printf("setup_s samples %v", setups)
	return result{Correct: correct, Attempted: rep.att, Failed: rep.failed, Metrics: rep.metrics}, nil
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
