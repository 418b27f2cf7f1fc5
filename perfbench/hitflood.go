package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"coordattack/internal/service"
)

// hit-flood: an open-loop flood of POSTs for a small hot set, each
// answered 200 done from the memory cache, with the job registry past
// its retention limit for the whole window.
var hitFloodDef = workloadDef{
	loop:      "open",
	load:      fmt.Sprintf("rate=%g/s nodes=1 hot_keys=%d", hitRate, hitHotKeys),
	tailP:     99,
	tailLimit: hitTailLimit,
	new:       func(b *bench) instance { return &hitFlood{base: base{b: b}} },
}

const (
	// hitRate is the offered rate of the timed window, below what the
	// daemon sustains once the registry is past retention, so a healthy
	// daemon builds no backlog.
	hitRate        = 150.0
	hitHotKeys     = 32
	hitHotTrials   = 2000
	hitTailLimit   = 50 * time.Millisecond
	hitMaxInFlight = 512
	// hitLateLimit is how late the open-loop generator may run, at its
	// 90th percentile, before it counts as behind its schedule and the
	// window as invalid: half the tail limit, since a late send is
	// charged to the request's latency. A host stall delays a few sends
	// and the generator catches up; only a lag on a tenth of them means
	// the offered rate was not offered.
	hitLateLimit = hitTailLimit / 2
	// The capacity ladder: rates hitRate·hitStep^k for k = 0..hitSteps,
	// each probe offered for hitStepDur.
	hitStep    = 1.08
	hitSteps   = 36
	hitStepDur = time.Second
)

type hitFlood struct {
	base
	hot []service.JobSpec
}

func (s *hitFlood) next(i int) request {
	r := s.rngs[0]
	return request{spec: s.hot[r.Intn(len(s.hot))]}
}

func (s *hitFlood) setup(tr *tracer) error {
	if err := s.boot(1, tr); err != nil {
		return err
	}
	r := s.b.rng("hit-flood/hot")
	s.hot = make([]service.JobSpec, hitHotKeys)
	for i := range s.hot {
		s.hot[i] = smallSpec(r, s.freshSeed(), hitHotTrials)
	}
	var hot []request
	for _, spec := range s.hot {
		hot = append(hot, request{spec: spec, fresh: true})
	}
	if err := listLoop(s.b.ctx, 1, hot, s.do); err != nil {
		return fmt.Errorf("computing the hot set: %w", err)
	}
	err := s.pastRetention(prefillClients, func(r *rand.Rand) service.JobSpec {
		return s.hot[r.Intn(len(s.hot))]
	})
	if err != nil {
		return err
	}
	s.clientRngs("hit-flood", 1)
	return nil
}

func (s *hitFlood) window(dur time.Duration) windowResult {
	res := openLoop(s.b.ctx, hitRate, dur, hitMaxInFlight, s.next, s.do)
	return s.openWindow(res, hitRate)
}

// openWindow reports an open-loop window, with the generator's lateness.
func (s *hitFlood) openWindow(res openResult, rate float64) windowResult {
	w := windowResult{outs: res.outs, elapsed: res.elapsed}
	late := res.lateness.sorted()
	s.b.rep.printf("open loop at %g/s: %d sent, %d dropped, backlog %d at the last due time; generator late p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max %.3f ms (limit p90 %.0f ms)",
		rate, len(res.outs)-res.dropped, res.dropped, res.backlog, ms(late.percentile(50)), ms(late.percentile(90)), ms(late.percentile(99)), ms(late.percentile(100)), ms(hitLateLimit))
	if p90 := late.percentile(90); p90 > hitLateLimit {
		w.invalid = fmt.Sprintf("generator ran %.1f ms late at p90, over its %.0f ms limit", ms(p90), ms(hitLateLimit))
	}
	return w
}

func (s *hitFlood) verify(w windowResult, delta counters) {
	if delta.engineRuns != 0 {
		s.ck.fail(fmt.Errorf("%d engine runs in a window of cache hits, want 0", delta.engineRuns))
	}
	if disk := delta.storeHits + delta.storeMisses + delta.storeWrites; disk != 0 {
		s.ck.fail(fmt.Errorf("%d store operations in a window of memory-cache hits, want 0", disk))
	}
	s.b.rep.printf("checked: %d bodies for identity; engine runs %d, store ops %d, jobs evicted %d in the window",
		len(w.outs), delta.engineRuns, delta.storeHits+delta.storeMisses+delta.storeWrites, delta.evicted)
}

// ladderDo is do for the capacity ladder: overload is the ladder's
// purpose, so a refused or slow request is a failed step, not a failed
// output check; a wrong body still is one.
func (s *hitFlood) ladderDo(r request) outcome {
	o := s.cl.submit(s.b.ctx, s.ns[r.node].base(), r.spec)
	if o.ok() {
		if err := s.ck.checkBody(&o); err != nil {
			o.err = err
			s.ck.fail(err)
		}
	}
	return o
}

// ladder finds, by bisection over a fixed ladder of rates 8% apart,
// the highest rung at which every request stays inside the tail limit,
// no backlog is left and the generator runs on time. It returns the
// completion rate measured at that rung.
func (s *hitFlood) ladder(rep *report) (maxRate float64, attempted int) {
	lo, hi := -1, hitSteps+1 // rung lo passed, rung hi failed
	for hi-lo > 1 && s.b.ctx.Err() == nil {
		k := (lo + hi) / 2
		rate := math.Round(hitRate * math.Pow(hitStep, float64(k)))
		res := openLoop(s.b.ctx, rate, hitStepDur, hitMaxInFlight, s.next, s.ladderDo)
		attempted += len(res.outs)
		var l latencies
		for _, o := range res.outs {
			if o.ok() {
				l = append(l, o.latency)
			}
		}
		sum := summarize(l, hitFloodDef.tailP)
		late := res.lateness.sorted().percentile(90)
		pass := sum.N == len(res.outs) && sum.TailOK && sum.Tail <= hitTailLimit &&
			res.backlog <= int(rate*hitTailLimit.Seconds())+1 && late <= hitLateLimit
		verdict := "over limit"
		if pass {
			verdict = "meets limit"
			lo, maxRate = k, float64(sum.N)/res.elapsed.Seconds()
		} else {
			hi = k
		}
		rep.printf("ladder rung %d, %4.0f/s: done %d/%d, p50 %.3f ms, p%g %.3f ms, backlog %d, generator late p90 %.3f ms: %s",
			k, rate, sum.N, len(res.outs), ms(sum.P50), sum.TailP, ms(sum.Tail), res.backlog, ms(late), verdict)
	}
	return maxRate, attempted
}
