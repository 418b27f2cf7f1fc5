package main

import (
	"fmt"
	"runtime"
	"time"

	"coordattack/internal/cliutil"
	"coordattack/internal/core"
	"coordattack/internal/mc"
	"coordattack/internal/rng"
	"coordattack/internal/service"
	"coordattack/internal/sim"
)

// Direct layer probes: each calls one layer's public function in
// process, without HTTP or the daemon around it.

const (
	probeRounds = 10
	probeEps    = 0.1
	probeBudget = 300 * time.Millisecond // per timed probe
	probeReps   = 3                      // mc probes: median of this many
)

// fixedS is Protocol S on a graph's good run, the probes' input.
func fixedS(graphSpec string) (mc.Config, error) {
	g, err := cliutil.ParseGraph(graphSpec, 1)
	if err != nil {
		return mc.Config{}, err
	}
	inputs, err := cliutil.ParseInputs("all", g)
	if err != nil {
		return mc.Config{}, err
	}
	r, err := cliutil.ParseRun("good", g, probeRounds, inputs, 1)
	if err != nil {
		return mc.Config{}, err
	}
	return mc.Config{Protocol: core.MustS(probeEps), Graph: g, Run: r, Seed: 1}, nil
}

// probeTrial times sim.Engine.Trial on a warm engine, in batches, and
// counts its allocations. It returns the median batch's ns per trial.
func probeTrial(graphSpec string) (nsPerTrial, allocsPerTrial float64, err error) {
	cfg, err := fixedS(graphSpec)
	if err != nil {
		return 0, 0, err
	}
	eng, err := sim.NewEngine(cfg.Protocol, cfg.Graph, cfg.Run.N())
	if err != nil {
		return 0, 0, err
	}
	if err := eng.LoadRun(cfg.Run); err != nil {
		return 0, 0, err
	}
	stream := rng.NewStream(1)
	const batch = 1000
	trial := uint64(0)
	runBatch := func() error {
		for i := 0; i < batch; i++ {
			if _, err := eng.Trial(stream, trial); err != nil {
				return err
			}
			trial++
		}
		return nil
	}
	if err := runBatch(); err != nil { // warm
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runBatch(); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&after)
	allocsPerTrial = float64(after.Mallocs-before.Mallocs) / batch
	var per []float64
	for end := time.Now().Add(probeBudget); time.Now().Before(end); {
		start := time.Now()
		if err := runBatch(); err != nil {
			return 0, 0, err
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/batch)
	}
	return medianF(per), allocsPerTrial, nil
}

// probeEstimate is mc.Estimate's trial rate on Protocol S over
// complete:4, at the given worker count, on the fast or reference path.
func probeEstimate(workers, trials int, reference bool) (float64, error) {
	cfg, err := fixedS("complete:4")
	if err != nil {
		return 0, err
	}
	cfg.Trials, cfg.Workers, cfg.Reference = trials, workers, reference
	var rates []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		res, err := mc.Estimate(cfg)
		if err != nil {
			return 0, err
		}
		if res.Completed != trials {
			return 0, fmt.Errorf("mc probe completed %d of %d trials", res.Completed, trials)
		}
		rates = append(rates, float64(trials)/time.Since(start).Seconds())
	}
	return medianF(rates), nil
}

// probeCall times f per call for probeBudget and returns the median.
func probeCall(f func() error) (time.Duration, error) {
	var per []time.Duration
	for end := time.Now().Add(probeBudget); time.Now().Before(end); {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		per = append(per, time.Since(start))
	}
	return medianD(per), nil
}

// probeSubmitHit is in-process Server.Submit of a cached key on srv,
// whose job registry is already past retention.
func probeSubmitHit(srv *service.Server, spec service.JobSpec) (time.Duration, error) {
	return probeCall(func() error {
		st, err := srv.Submit(spec)
		if err == nil && !st.Cached {
			err = fmt.Errorf("submit probe: key %s was not a cache hit", st.Key[:12])
		}
		return err
	})
}

// probeCanonKey is JobSpec.Canonicalize followed by Key.
func probeCanonKey(spec service.JobSpec) (time.Duration, error) {
	return probeCall(func() error {
		c, err := spec.Canonicalize()
		if err == nil {
			_ = c.Key()
		}
		return err
	})
}
