package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"coordattack/internal/service"
)

// workloadDef is a workload's run record and constructor.
type workloadDef struct {
	loop string // "closed" or "open"
	load string // client count or offered rate, as printed
	// tailP is the percentile latency_tail_ms reports, when the sample
	// leaves at least tailBeyond samples beyond it; tailLimit is the
	// latency limit on it.
	tailP     float64
	tailLimit time.Duration
	new       func(b *bench) instance
}

var workloads = map[string]workloadDef{
	"cold-mc":     coldMCDef,
	"hit-flood":   hitFloodDef,
	"cluster-mix": clusterMixDef,
}

// instance is one set-up copy of a workload: its nodes, client,
// checker and request generator.
type instance interface {
	// setup boots the nodes and runs the warm-up; tr is nil untraced.
	setup(tr *tracer) error
	// window drives the timed load for dur.
	window(dur time.Duration) windowResult
	// verify runs the checks that need the whole window: counter
	// identities, re-derivation and exact-probability checks. It counts
	// every failure in the instance's checker.
	verify(w windowResult, delta counters)
	nodes() []*node
	checker() *checker
	close()
}

// windowResult is one timed window's load.
type windowResult struct {
	outs    []outcome
	elapsed time.Duration
	// extraAttempted counts requests outside the latency sample
	// (monitoring scrapes); their failures are counted by the checker.
	extraAttempted int
	// invalid, when set, is why the window's numbers cannot stand:
	// an open-loop generator that fell behind its schedule.
	invalid string
}

func (w windowResult) okOps() (ok int) {
	for _, o := range w.outs {
		if o.ok() {
			ok++
		}
	}
	return ok
}

func (w windowResult) latencies() latencies {
	var l latencies
	for _, o := range w.outs {
		if o.ok() {
			l = append(l, o.latency)
		}
	}
	return l
}

// prefillClients is how many concurrent clients setup's prefills use.
const prefillClients = 4

var servedGraphs = []string{"pair", "complete:4", "ring:6"}

// base is the state every workload instance shares.
type base struct {
	b    *bench
	ns   []*node
	cl   *client
	ck   *checker
	seq  atomic.Uint64 // job seeds handed out so far: each is a fresh key
	rngs []*rand.Rand  // one generator per load client
}

func (s *base) nodes() []*node    { return s.ns }
func (s *base) checker() *checker { return s.ck }

// boot starts count nodes with a fresh directory.
func (s *base) boot(count int, tr *tracer) error {
	s.ck = newChecker()
	s.cl = newClient(tr)
	lns, err := listen(count)
	if err != nil {
		return err
	}
	s.ns, err = bootNodes(s.b.nextDir(), lns, tr)
	return err
}

func (s *base) close() {
	closeNodes(s.ns)
	s.ns = nil
	if s.cl != nil {
		s.cl.close()
	}
}

// clientRngs makes one seeded generator per load client.
func (s *base) clientRngs(label string, n int) {
	s.rngs = make([]*rand.Rand, n)
	for i := range s.rngs {
		s.rngs[i] = s.b.rng(fmt.Sprintf("%s/%d", label, i))
	}
}

// freshSeed is a job seed no earlier request of this instance used.
func (s *base) freshSeed() uint64 { return uint64(s.b.seed)<<24 + s.seq.Add(1) }

// do sends one request and checks its output. Only a fresh key's
// body is kept past the check, for the checks that need the whole
// window, so the load generator's own heap stays small beside the
// daemon's.
func (s *base) do(r request) outcome {
	o := s.cl.submit(s.b.ctx, s.ns[r.node].base(), r.spec)
	o.fresh = r.fresh
	s.ck.request(&o)
	if !r.fresh && o.st != nil {
		o.st.Result = nil
	}
	return o
}

// retentionMargin is how far past JobRetention setup pushes each node's
// job registry.
const retentionMargin = 256

// pastRetention sends every node requests for keys from pick until its
// job registry holds retentionMargin more jobs than the daemon retains,
// so the window runs in the state a long-lived daemon serves in: every
// registration evicts. It requires evictions on every node.
func (s *base) pastRetention(clients int, pick func(r *rand.Rand) service.JobSpec) error {
	r := s.b.rng("retention")
	var reqs []request
	for i, n := range s.ns {
		need := coorddJobKeep + retentionMargin - int(n.srv.Metrics().JobsSubmitted.Load())
		for k := 0; k < need; k++ {
			reqs = append(reqs, request{node: i, spec: pick(r)})
		}
	}
	r.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	if err := listLoop(s.b.ctx, clients, reqs, s.do); err != nil {
		return fmt.Errorf("prefilling the job registry: %w", err)
	}
	for i, n := range s.ns {
		if n.srv.Metrics().JobsEvicted.Load() == 0 {
			return fmt.Errorf("node %d: job registry not past retention after %d requests", i, len(reqs))
		}
	}
	return nil
}

// smallSpec is a Protocol S job on a random served graph and fixed run.
func smallSpec(r *rand.Rand, seed uint64, trials int) service.JobSpec {
	return service.JobSpec{
		Protocol: "s:0.1",
		Graph:    servedGraphs[r.Intn(len(servedGraphs))],
		Rounds:   10,
		Run:      fixedRun(r, 10),
		Trials:   trials,
		Seed:     seed,
	}
}

// fixedRun is a good run or a run cut at a random round.
func fixedRun(r *rand.Rand, rounds int) string {
	if r.Intn(2) == 0 {
		return "good"
	}
	return fmt.Sprintf("cut:%d", 1+r.Intn(rounds))
}
