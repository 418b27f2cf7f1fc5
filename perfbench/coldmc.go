package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"coordattack/internal/service"
)

// cold-mc: every request is a fresh key, so the engine does nearly all
// of each request's work. Setup pushes the job registry past retention
// with cache hits on the warm-up keys.
var coldMCDef = workloadDef{
	loop:      "closed",
	load:      fmt.Sprintf("clients=%d nodes=1", runtime.NumCPU()),
	tailP:     95,
	tailLimit: time.Second,
	new:       func(b *bench) instance { return &coldMC{base: base{b: b}} },
}

const (
	coldRounds        = 10
	coldTrials        = 20000
	coldSamplerTrials = 2000 // a sampled run costs ~10x a fixed one per trial
	coldFaultTrials   = 1000 // the reference path costs ~20x the fast one
	coldCycle         = 20
	coldWarmup        = 4 // requests per client before the window
)

type coldMC struct {
	base
	sent []int // requests generated per client
}

// coldSpec is a cold-mc request: a fresh Protocol S job. The request
// classes, graphs, runs and loss rates follow fixed cycles, so every
// window carries the same mix of work whatever the seed, which sets the
// job seeds. Each cycle of coldCycle requests holds one with random
// process faults, whose trials run on mc's reference path, and two with
// a per-trial loss sampler; the rest condition on a good run or one cut
// at some round. Trial counts are set so each class costs the engine a
// similar time.
func coldSpec(i int, seed uint64) service.JobSpec {
	spec := service.JobSpec{
		Protocol: "s:0.1",
		Graph:    servedGraphs[i%len(servedGraphs)],
		Rounds:   coldRounds,
		Trials:   coldTrials,
		Seed:     seed,
	}
	// good, cut:1 … cut:10, crossed with the graphs.
	run := "good"
	if k := i / len(servedGraphs) % (coldRounds + 1); k > 0 {
		run = fmt.Sprintf("cut:%d", k)
	}
	switch i % coldCycle {
	case 0:
		spec.Fault = "rand:0.2"
		spec.Run = run
		spec.Trials = coldFaultTrials
	case 1, 2:
		spec.Sampler = []string{"loss:0.05", "loss:0.2"}[i%coldCycle-1]
		spec.Trials = coldSamplerTrials
	default:
		spec.Run = run
	}
	return spec
}

// next is client c's next request; the clients start their cycles half
// a cycle apart, so their fault requests do not coincide.
func (s *coldMC) next(c int) request {
	i := s.sent[c] + c*coldCycle/2
	s.sent[c]++
	return request{spec: coldSpec(i, s.freshSeed()), fresh: true}
}

func (s *coldMC) setup(tr *tracer) error {
	if err := s.boot(1, tr); err != nil {
		return err
	}
	clients := runtime.NumCPU()
	s.sent = make([]int, clients)
	var warm []request
	for c := 0; c < clients; c++ {
		for i := 0; i < coldWarmup; i++ {
			warm = append(warm, s.next(c))
		}
	}
	if err := listLoop(s.b.ctx, clients, warm, s.do); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return s.pastRetention(prefillClients, func(r *rand.Rand) service.JobSpec {
		return warm[r.Intn(len(warm))].spec
	})
}

func (s *coldMC) window(dur time.Duration) windowResult {
	outs, elapsed := closedLoop(s.b.ctx, len(s.sent), dur, s.next, s.do)
	return windowResult{outs: outs, elapsed: elapsed}
}

func (s *coldMC) verify(w windowResult, delta counters) {
	verifyCold(s.ck, s.b, w, delta)
}

// verifyCold checks a window of fresh-key requests: one engine run per
// fresh key, a re-derived sample, and the exact-probability check.
func verifyCold(ck *checker, b *bench, w windowResult, delta counters) {
	var fresh []outcome
	for _, o := range w.outs {
		if o.fresh {
			fresh = append(fresh, o)
		}
	}
	if runs := int64(len(fresh)); delta.engineRuns != runs {
		ck.fail(fmt.Errorf("engine ran %d times for %d fresh keys, want exactly once each", delta.engineRuns, runs))
	}
	n := ck.rederive(fresh, b.seed)
	checks := ck.exact(fresh)
	b.rep.printf("checked: %d bodies for identity, %d re-derived with mc.Estimate, %d exact Wilson intervals (false-alarm budget %g per run)",
		len(w.outs), n, checks, falseAlarmBudget)
}
