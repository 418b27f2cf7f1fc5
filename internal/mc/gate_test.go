//go:build perfgate

package mc_test

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"coordattack/internal/baseline"
	"coordattack/internal/core"
	"coordattack/internal/graph"
	"coordattack/internal/mc"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
	"coordattack/internal/sim"
)

// The performance gate (make bench-check). For every cell of the
// protocol × graph × path matrix it times the fast path and the
// reference path of the same work back to back in this process and
// fails if the median speedup falls below the cell's floor. Both sides
// run on the same host, so host speed cancels out of the ratio and any
// runner can catch a fast-path regression, an accidental fallback to
// the reference path included. It is behind the perfgate build tag so
// that `go test ./...` runs no timing check.
//
// Each floor is 0.4x the lowest median speedup over eight runs on a
// 2-vCPU host, rounded down to a multiple of 0.5, so a fast-path
// slowdown of about 2.5-3x trips its cell. CHANGES.md records the runs.
var gateFloors = map[string]float64{
	"s:0.1/pair/sim":             4,
	"s:0.1/pair/mc":              3.5,
	"s:0.1/complete:4/sim":       5.5,
	"s:0.1/complete:4/mc":        5,
	"s:0.1/ring:6/sim":           5.5,
	"s:0.1/ring:6/mc":            5.5,
	"detfullinfo/pair/sim":       3.5,
	"detfullinfo/pair/mc":        3,
	"detfullinfo/complete:4/sim": 4.5,
	"detfullinfo/complete:4/mc":  4.5,
	"detfullinfo/ring:6/sim":     5.5,
	"detfullinfo/ring:6/mc":      5,
}

const (
	gateRounds  = 7                     // timed rounds per cell; the median is gated
	gateWindow  = 30 * time.Millisecond // minimum timed span per side per round
	gateHorizon = 10                    // rounds N of the good run
	gateSeed    = 1992
	simBatch    = 200  // sim trials per timed call
	mcTrials    = 2000 // trials per mc.Estimate call
)

// gateSide is one timed side of a cell: each call runs some trials and
// reports how many.
type gateSide func() (trials int, err error)

type gateCell struct {
	name      string
	fast, ref gateSide
}

func TestFastPathRatioGate(t *testing.T) {
	complete4, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	ring6, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	protocols := []struct {
		name string
		p    protocol.Protocol
	}{{"s:0.1", core.MustS(0.1)}, {"detfullinfo", baseline.NewDetFullInfo()}}
	graphs := []struct {
		name string
		g    *graph.G
	}{{"pair", graph.Pair()}, {"complete:4", complete4}, {"ring:6", ring6}}

	var cells []gateCell
	for _, pc := range protocols {
		for _, gc := range graphs {
			r, err := run.Good(gc.g, gateHorizon, gc.g.Vertices()...)
			if err != nil {
				t.Fatal(err)
			}
			prefix := pc.name + "/" + gc.name + "/"
			cells = append(cells,
				simCell(t, prefix+"sim", pc.p, gc.g, r),
				mcCell(prefix+"mc", pc.p, gc.g, r))
		}
	}
	if len(cells) != len(gateFloors) {
		t.Fatalf("%d cells but %d floors", len(cells), len(gateFloors))
	}

	for _, c := range cells { // warm pools, pages and caches untimed
		for _, side := range []gateSide{c.fast, c.ref} {
			if _, err := side(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
	ratios := make([][]float64, len(cells))
	for round := 0; round < gateRounds; round++ {
		for i, c := range cells {
			// Alternate which side goes first so drift within a round
			// does not favour either.
			var fastNs, refNs float64
			if round%2 == 0 {
				fastNs = nsPerTrial(t, c.name, c.fast)
				refNs = nsPerTrial(t, c.name, c.ref)
			} else {
				refNs = nsPerTrial(t, c.name, c.ref)
				fastNs = nsPerTrial(t, c.name, c.fast)
			}
			ratios[i] = append(ratios[i], refNs/fastNs)
		}
	}

	for i, c := range cells {
		rs := ratios[i]
		sort.Float64s(rs)
		median := rs[len(rs)/2]
		floor := gateFloors[c.name]
		// Headroom is the fast-path slowdown this run could absorb
		// before the cell trips.
		t.Logf("%-27s speedup median %6.2fx  min %6.2fx  max %6.2fx  floor %4.1fx  headroom %.2fx",
			c.name, median, rs[0], rs[len(rs)-1], floor, median/floor)
		if !(median >= floor) {
			t.Errorf("%s: fast path only %.2fx the reference (median of %d rounds), floor %.2fx; "+
				"a ratio near 1 means the fast path is not being taken", c.name, median, len(rs), floor)
		}
	}
}

// simCell pits sim.Engine.Trial against sim.Outputs on the same run and
// tape labels.
func simCell(t *testing.T, name string, p protocol.Protocol, g *graph.G, r *run.Run) gateCell {
	t.Helper()
	eng, err := sim.NewEngine(p, g, r.N())
	if err != nil {
		t.Fatalf("%s: no fast engine: %v", name, err)
	}
	if err := eng.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	stream := rng.NewStream(gateSeed)
	var fastTrial, refTrial uint64
	return gateCell{
		name: name,
		fast: func() (int, error) {
			for i := 0; i < simBatch; i++ {
				if _, err := eng.Trial(stream, fastTrial); err != nil {
					return 0, err
				}
				fastTrial++
			}
			return simBatch, nil
		},
		ref: func() (int, error) {
			for i := 0; i < simBatch; i++ {
				if _, err := sim.Outputs(p, g, r, sim.StreamTapes(stream, refTrial)); err != nil {
					return 0, err
				}
				refTrial++
			}
			return simBatch, nil
		},
	}
}

// mcCell pits mc.Estimate against the same job with Reference set.
func mcCell(name string, p protocol.Protocol, g *graph.G, r *run.Run) gateCell {
	estimate := func(reference bool) gateSide {
		return func() (int, error) {
			_, err := mc.Estimate(mc.Config{
				Protocol: p, Graph: g, Run: r, Trials: mcTrials, Seed: gateSeed, Reference: reference,
			})
			return mcTrials, err
		}
	}
	return gateCell{name: name, fast: estimate(false), ref: estimate(true)}
}

// nsPerTrial calls side until gateWindow has elapsed (once at least)
// and returns the mean time per trial. A collection first keeps one
// side's garbage from being charged to the other.
func nsPerTrial(t *testing.T, name string, side gateSide) float64 {
	t.Helper()
	runtime.GC()
	trials := 0
	start := time.Now()
	for {
		n, err := side()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		trials += n
		if el := time.Since(start); el >= gateWindow {
			return float64(el.Nanoseconds()) / float64(trials)
		}
	}
}
