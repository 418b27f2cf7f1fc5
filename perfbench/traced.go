package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// layerMetrics are the traced run's per-layer metrics, in report order.
// A metric for work a workload does not do reads 0 on that workload.
var layerMetrics = []struct{ name, unit string }{
	{"sim.trial_ns.pair", "ns"},
	{"sim.trial_ns.complete4", "ns"},
	{"sim.trial_ns.ring6", "ns"},
	{"sim.allocs_per_trial", "count"},
	{"mc.trials_per_s.one", "1/s"},
	{"mc.trials_per_s.all", "1/s"},
	{"mc.scaling_eff", "ratio"},
	{"mc.reference_trials_per_s", "1/s"},
	{"mc.reference_share", "ratio"},
	{"service.engine_ms", "ms"},
	{"service.engine_busy_share", "ratio"},
	{"service.queue_wait_ms", "ms"},
	{"service.submit_hit_us", "us"},
	{"service.canon_key_us", "us"},
	{"service.jobs_evicted_per_op", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.engine_runs_per_cold_op", "count"},
	{"service.peer_hits_per_op", "count"},
	{"http.handler_us", "us"},
	{"http.overhead_us", "us"},
	{"queue.journal_append_us", "us"},
	{"queue.journal_fsyncs_per_op", "count"},
	{"queue.compactions", "count"},
	{"store.put_us", "us"},
	{"store.read_us", "us"},
	{"store.fsyncs_per_op", "count"},
	{"store.hit_ratio", "ratio"},
	{"cluster.fetch_ms", "ms"},
	{"cluster.push_ms", "ms"},
	{"cluster.peer_reqs_per_op", "count"},
	{"cluster.fetch_hit_ratio", "ratio"},
	{"cluster.breaker_opens", "count"},
	{"hints.queued", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles_per_kop", "count"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_ops_share", "ratio"},
}

// Probe sizes: trial counts for a few tenths of a second per call on a
// two-vCPU x86 host.
const (
	probeFastTrials = 200_000
	probeRefTrials  = 20_000
)

// runTraced is the traced run: one setup with the trace wrappers at
// every seam, a first half-window with recording off and a second with
// it on (their difference is the tracing overhead), then the per-layer
// metrics from the spans, the daemon's counters and the direct probes.
func runTraced(b *bench, def workloadDef, dur time.Duration, outDir string) (result, error) {
	rep := b.rep
	tr := newTracer()
	inst := def.new(b)
	if err := inst.setup(tr); err != nil {
		inst.close()
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	plain := inst.window(dur / 2)
	tr.on.Store(true)
	before := snapshot(inst.nodes())
	w := inst.window(dur / 2)
	delta := snapshot(inst.nodes()).sub(before)
	tr.on.Store(false)
	inst.verify(w, delta)
	ck := inst.checker()

	spans := tr.snapshot()
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.jsonl", rep.name, b.seed))
		if err := tr.write(path); err != nil {
			rep.printf("writing spans: %v", err)
		} else {
			rep.printf("%d spans written to %s", len(spans), path)
		}
	}
	vals := spanMetrics(rep, spans, w, delta, len(inst.nodes()))

	// Tracing overhead: the traced half against the untraced one.
	p0, p1 := summarize(plain.latencies(), def.tailP), summarize(w.latencies(), def.tailP)
	ops0 := float64(plain.okOps()) / plain.elapsed.Seconds()
	ops1 := float64(w.okOps()) / w.elapsed.Seconds()
	vals["trace.overhead_p50_ms"] = ms(p1.P50 - p0.P50)
	vals["trace.overhead_ops_share"] = ratio(ops0-ops1, ops0)
	rep.printf("untraced half: %.1f ops/s, p50 %.3f ms; traced half: %.1f ops/s, p50 %.3f ms", ops0, ms(p0.P50), ops1, ms(p1.P50))

	if err := runProbes(rep.name, inst, vals); err != nil {
		return result{}, err
	}

	rep.att = len(plain.outs) + len(w.outs) + plain.extraAttempted + w.extraAttempted
	rep.failed = ck.failed
	for _, v := range []string{plain.invalid, w.invalid} {
		if v != "" {
			rep.printf("INVALID: %s", v)
			rep.failed++
		}
	}
	for _, m := range ck.msgs {
		rep.printf("check failed: %s", m)
	}
	for _, m := range layerMetrics {
		rep.set(m.name, vals[m.name], m.unit)
	}
	correct := ck.failed == 0 && plain.invalid == "" && w.invalid == ""
	return result{Correct: correct, Attempted: rep.att, Failed: rep.failed, Metrics: rep.metrics}, nil
}

// runProbes runs the direct probes of the layers that do the workload's
// work: the trial engine and estimator under cold-mc, admission under
// hit-flood.
func runProbes(workload string, inst instance, vals map[string]float64) error {
	switch workload {
	case "cold-mc":
		for _, g := range servedGraphs {
			ns, allocs, err := probeTrial(g)
			if err != nil {
				return err
			}
			vals["sim.trial_ns."+strings.ReplaceAll(g, ":", "")] = ns
			if g == "complete:4" {
				vals["sim.allocs_per_trial"] = allocs
			}
		}
		one, err := probeEstimate(1, probeFastTrials, false)
		if err != nil {
			return err
		}
		all, err := probeEstimate(runtime.GOMAXPROCS(0), probeFastTrials, false)
		if err != nil {
			return err
		}
		ref, err := probeEstimate(runtime.GOMAXPROCS(0), probeRefTrials, true)
		if err != nil {
			return err
		}
		vals["mc.trials_per_s.one"] = one
		vals["mc.trials_per_s.all"] = all
		vals["mc.scaling_eff"] = all / (one * float64(runtime.GOMAXPROCS(0)))
		vals["mc.reference_trials_per_s"] = ref
	case "hit-flood":
		hot := inst.(*hitFlood).hot
		d, err := probeSubmitHit(inst.nodes()[0].srv, hot[0])
		if err != nil {
			return err
		}
		vals["service.submit_hit_us"] = us(d)
		d, err = probeCanonKey(hot[0])
		if err != nil {
			return err
		}
		vals["service.canon_key_us"] = us(d)
	}
	return nil
}

// spanMetrics derives the span-based per-layer metrics and the
// per-op counter ratios, and prints where the requests' time went.
func spanMetrics(rep *report, spans []span, w windowResult, delta counters, nodes int) map[string]float64 {
	vals := make(map[string]float64)
	ops := float64(len(w.outs))
	durs := make(map[string][]time.Duration)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
	}
	med := func(name string) time.Duration { return medianD(durs[name]) }

	fresh := make(map[string]bool)
	var cold float64
	for _, o := range w.outs {
		if o.fresh && o.st != nil {
			fresh[o.st.Key] = true
		}
		if o.fresh {
			cold++
		}
	}
	// Engine: time per run, busy share of the pool, and the share of
	// engine time spent on mc's reference path.
	var busy, refBusy time.Duration
	ref := make(map[string]bool) // key → runs on the reference path
	for _, o := range w.outs {
		if o.st != nil {
			ref[o.st.Key] = onReferencePath(o)
		}
	}
	for _, s := range spans {
		if s.Name == "service.engine" {
			busy += s.dur()
			if ref[s.Key] {
				refBusy += s.dur()
			}
		}
	}
	vals["service.engine_ms"] = ms(med("service.engine"))
	vals["service.engine_busy_share"] = ratio(busy.Seconds(), w.elapsed.Seconds()*float64(coorddWorkers*nodes))
	vals["mc.reference_share"] = ratio(refBusy.Seconds(), busy.Seconds())

	trees := buildTrees(spans)
	var waits, overheads []time.Duration
	for _, root := range trees {
		var post, submit *spanNode
		first := int64(-1)
		root.walk(func(n *spanNode) {
			switch n.Name {
			case "client.post":
				post = n
			case "http.submit":
				submit = n
			case "service.engine", "cluster.fetch":
				if first < 0 || n.Start < first {
					first = n.Start
				}
			}
		})
		if post != nil && submit != nil {
			overheads = append(overheads, post.dur()-submit.dur())
			if first >= submit.End {
				waits = append(waits, time.Duration(first-submit.End))
			}
		}
	}
	vals["service.queue_wait_ms"] = ms(medianD(waits))
	vals["http.handler_us"] = us(med("http.submit"))
	vals["http.overhead_us"] = us(medianD(overheads))
	vals["queue.journal_append_us"] = us(med("queue.append"))
	vals["store.put_us"] = us(med("store.put"))
	vals["store.read_us"] = us(med("store.read"))
	vals["cluster.fetch_ms"] = ms(med("cluster.fetch"))
	vals["cluster.push_ms"] = ms(med("cluster.push"))

	vals["service.jobs_evicted_per_op"] = ratio(float64(delta.evicted), ops)
	vals["service.cache_hit_ratio"] = ratio(float64(delta.cacheHits), float64(delta.cacheHits+delta.cacheMisses))
	vals["service.engine_runs_per_cold_op"] = ratio(float64(delta.engineRuns), cold)
	vals["service.peer_hits_per_op"] = ratio(float64(delta.peerHits), ops)
	vals["queue.journal_fsyncs_per_op"] = ratio(float64(delta.queueFsyncs), ops)
	vals["queue.compactions"] = float64(delta.compactions)
	vals["store.fsyncs_per_op"] = ratio(float64(delta.storeFsyncs), ops)
	vals["store.hit_ratio"] = ratio(float64(delta.storeHits), float64(delta.storeHits+delta.storeMisses))
	vals["cluster.peer_reqs_per_op"] = ratio(float64(delta.peerReqs), ops)
	vals["cluster.fetch_hit_ratio"] = ratio(float64(delta.fetchHits), float64(delta.fetches))
	vals["cluster.breaker_opens"] = float64(delta.breakerOpen)
	vals["hints.queued"] = float64(delta.hintAdds)
	vals["go.alloc_bytes_per_op"] = ratio(float64(delta.allocBytes), ops)
	vals["go.gc_cycles_per_kop"] = ratio(float64(delta.numGC)*1000, ops)

	printBreakdown(rep, trees, fresh)
	var engine, disk int
	for _, s := range spans {
		switch {
		case s.Name == "service.engine":
			engine++
		case strings.HasPrefix(s.Name, "store.") || strings.HasPrefix(s.Name, "queue.") || strings.HasPrefix(s.Name, "hints."):
			disk++
		}
	}
	rep.printf("traced window: %d requests, %d spans, %d engine spans, %d disk spans; engine span median %.3f ms",
		len(w.outs), len(spans), engine, disk, ms(med("service.engine")))
	return vals
}

// onReferencePath reports whether o's job ran on mc's reference path.
func onReferencePath(o outcome) bool {
	if o.spec.Fault == "" {
		return false // only fault injection leaves the fast path here
	}
	canon, err := o.spec.Canonicalize()
	return err == nil && referencePath(canon)
}

// printBreakdown prints, per request class, each span's presence on
// the blocking path and its median self time, against the class's
// median latency: where the requests' time went.
func printBreakdown(rep *report, trees []*spanNode, fresh map[string]bool) {
	classes := map[string][]*spanNode{}
	for _, root := range trees {
		c := "repeat-key"
		if fresh[root.Key] {
			c = "fresh-key"
		}
		classes[c] = append(classes[c], root)
	}
	for _, c := range []string{"fresh-key", "repeat-key"} {
		roots := classes[c]
		if len(roots) == 0 {
			continue
		}
		var total []time.Duration
		present := map[string]int{}
		self := map[string][]time.Duration{}
		for _, root := range roots {
			total = append(total, root.dur())
			seen := map[string]bool{}
			root.walk(func(n *spanNode) {
				self[n.Name] = append(self[n.Name], n.selfTime())
				if !seen[n.Name] {
					seen[n.Name] = true
					present[n.Name]++
				}
			})
		}
		rep.printf("blocking path, %s requests (n=%d, latency p50 %.3f ms):", c, len(roots), ms(medianD(total)))
		var names []string
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			var sum time.Duration
			for _, d := range self[n] {
				sum += d
			}
			rep.printf("  %-20s on %5.1f%% of requests, self p50 %9.3f ms, self mean per request %9.3f ms",
				n, 100*float64(present[n])/float64(len(roots)), ms(medianD(self[n])), ms(sum/time.Duration(len(roots))))
		}
	}
}
