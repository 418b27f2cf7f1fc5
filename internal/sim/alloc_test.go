package sim

import (
	"testing"

	"coordattack/internal/baseline"
	"coordattack/internal/core"
	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

// The allocation-regression suite: the steady-state trial loop of the
// fast engine must allocate nothing, so a later change cannot silently
// reintroduce per-trial garbage.

func zeroAllocTrialLoop(t *testing.T, name string, trialFn func(trial uint64) error) {
	t.Helper()
	// Warm up: first trials fill the seed page and grow nothing after.
	trial := uint64(0)
	for ; trial < 8; trial++ {
		if err := trialFn(trial); err != nil {
			t.Fatalf("%s warmup: %v", name, err)
		}
	}
	allocs := testing.AllocsPerRun(400, func() {
		if err := trialFn(trial); err != nil {
			t.Fatal(err)
		}
		trial++
	})
	if allocs != 0 {
		t.Errorf("%s: %v allocs per steady-state trial, want 0", name, allocs)
	}
}

func TestEngineTrialZeroAlloc(t *testing.T) {
	const n = 10
	stream := rng.NewStream(1992)
	for pname, p := range map[string]protocol.Protocol{
		"s":           core.MustS(0.1),
		"detfullinfo": baseline.NewDetFullInfo(),
	} {
		for gname, g := range fastTestGraphs(t) {
			eng, err := NewEngine(p, g, n)
			if err != nil {
				t.Fatal(err)
			}
			good, err := run.Good(g, n, g.Vertices()...)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.LoadRun(good); err != nil {
				t.Fatal(err)
			}
			zeroAllocTrialLoop(t, pname+"/"+gname, func(trial uint64) error {
				_, err := eng.Trial(stream, trial)
				return err
			})
		}
	}
}

// TestEngineResampledRunZeroAlloc covers the Monte-Carlo shape: a fresh
// random run is written into the engine's bitset every trial (via the
// pooled Set, no *run.Run materialized) before executing.
func TestEngineResampledRunZeroAlloc(t *testing.T) {
	const n = 10
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.NewStream(3)
	runStream := rng.NewStream(4)
	eng, err := NewEngine(core.MustS(0.1), g, n)
	if err != nil {
		t.Fatal(err)
	}
	sampler := rng.NewTape(0)
	edges := g.Edges()
	var runPage rng.SeedPage
	zeroAllocTrialLoop(t, "resampled/s/complete4", func(trial uint64) error {
		runPage.Ensure(runStream, trial, 0)
		sampler.Reseed(runPage.Seed(trial, 0))
		rs := eng.RunSet()
		if err := rs.Reset(n, 4); err != nil {
			return err
		}
		for _, e := range edges {
			for round := 1; round <= n; round++ {
				keepAB, err := sampler.Bit()
				if err != nil {
					return err
				}
				if keepAB == 1 {
					if err := rs.Deliver(e.A, e.B, round); err != nil {
						return err
					}
				}
				keepBA, err := sampler.Bit()
				if err != nil {
					return err
				}
				if keepBA == 1 {
					if err := rs.Deliver(e.B, e.A, round); err != nil {
						return err
					}
				}
			}
		}
		if err := rs.AddInput(1); err != nil {
			return err
		}
		_, err := eng.Trial(stream, trial)
		return err
	})
}
